#include "support/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "support/contracts.hpp"
#include "support/strings.hpp"

namespace ccref {

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value, 10);
  if (ec != std::errc() || ptr != text.data() + text.size()) return {};
  if (value < min || value > max) return {};
  return value;
}

std::optional<std::uint64_t> parse_size(std::string_view text,
                                        std::uint64_t min, std::uint64_t max) {
  if (text.empty()) return {};
  std::uint64_t mult = 1;
  switch (text.back()) {
    case 'K': case 'k': mult = std::uint64_t{1} << 10; break;
    case 'M': case 'm': mult = std::uint64_t{1} << 20; break;
    case 'G': case 'g': mult = std::uint64_t{1} << 30; break;
    case 'T': case 't': mult = std::uint64_t{1} << 40; break;
    default: break;
  }
  if (mult != 1) text.remove_suffix(1);
  // Pre-dividing the cap by the multiplier makes the overflow check exact:
  // any digits value above max/mult would overflow or bust the range.
  auto digits =
      parse_uint(text, 0, std::numeric_limits<std::uint64_t>::max() / mult);
  if (!digits) return {};
  const std::uint64_t value = *digits * mult;
  if (value < min || value > max) return {};
  return value;
}

Cli::Cli(int argc, char** argv) {
  CCREF_REQUIRE(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
    } else if (arg.starts_with("--")) {
      arg.remove_prefix(2);
      auto eq = arg.find('=');
      if (eq != std::string_view::npos) {
        values_.emplace(std::string(arg.substr(0, eq)),
                        std::string(arg.substr(eq + 1)));
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        values_.emplace(std::string(arg), std::string(argv[++i]));
      } else {
        values_.emplace(std::string(arg), "true");
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

std::string Cli::str_flag(std::string_view name, std::string_view def,
                          std::string_view help) {
  decls_.push_back({std::string(name), std::string(def), std::string(help)});
  auto it = values_.find(name);
  if (it == values_.end()) return std::string(def);
  std::string v = it->second;
  values_.erase(it);
  return v;
}

std::int64_t Cli::int_flag(std::string_view name, std::int64_t def,
                           std::string_view help) {
  std::string v = str_flag(name, strf("%lld", static_cast<long long>(def)),
                           help);
  char* end = nullptr;
  long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (!end || *end != '\0' || v.empty()) {
    std::fprintf(stderr, "%s: bad value for --%.*s: '%s' (expected integer)\n",
                 program_.c_str(), static_cast<int>(name.size()), name.data(),
                 v.c_str());
    std::exit(2);
  }
  return parsed;
}

std::uint64_t Cli::uint_flag(std::string_view name, std::uint64_t def,
                             std::uint64_t min, std::uint64_t max,
                             std::string_view help) {
  std::string v = str_flag(
      name, strf("%llu", static_cast<unsigned long long>(def)), help);
  if (auto parsed = parse_uint(v, min, max)) return *parsed;
  std::fprintf(stderr,
               "%s: bad value for --%.*s: '%s' (expected integer in "
               "[%llu, %llu])\n",
               program_.c_str(), static_cast<int>(name.size()), name.data(),
               v.c_str(), static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max));
  std::exit(2);
}

std::uint64_t Cli::size_flag(std::string_view name, std::string_view def,
                             std::uint64_t min, std::uint64_t max,
                             std::string_view help) {
  std::string v = str_flag(name, def, help);
  if (auto parsed = parse_size(v, min, max)) return *parsed;
  std::fprintf(stderr,
               "%s: bad value for --%.*s: '%s' (expected bytes with an "
               "optional K/M/G/T suffix, in [%llu, %llu])\n",
               program_.c_str(), static_cast<int>(name.size()), name.data(),
               v.c_str(), static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max));
  std::exit(2);
}

double Cli::double_flag(std::string_view name, double def, double min,
                        double max, std::string_view help) {
  std::string v = str_flag(name, strf("%g", def), help);
  char* end = nullptr;
  double parsed = std::strtod(v.c_str(), &end);
  // strtod also accepts "nan", "inf" and hex floats ("0x1p4"); a NaN here
  // makes every downstream comparison false, so gates like --assert-speedup
  // would pass vacuously. Require a plain finite decimal number.
  const bool hex = v.find('x') != std::string::npos ||
                   v.find('X') != std::string::npos;
  if (!end || *end != '\0' || v.empty() || hex || !std::isfinite(parsed) ||
      parsed < min || parsed > max) {
    std::fprintf(stderr,
                 "%s: bad value for --%.*s: '%s' (expected finite decimal "
                 "number in [%g, %g])\n",
                 program_.c_str(), static_cast<int>(name.size()), name.data(),
                 v.c_str(), min, max);
    std::exit(2);
  }
  return parsed;
}

bool Cli::bool_flag(std::string_view name, bool def, std::string_view help) {
  std::string v = str_flag(name, def ? "true" : "false", help);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  std::fprintf(stderr,
               "%s: bad value for --%.*s: '%s' (expected true or false)\n",
               program_.c_str(), static_cast<int>(name.size()), name.data(),
               v.c_str());
  std::exit(2);
}

void Cli::finish() {
  if (help_requested_) {
    std::printf("usage: %s [flags]\n", program_.c_str());
    for (const auto& d : decls_)
      std::printf("  --%-24s (default: %s) %s\n", d.name.c_str(),
                  d.def.c_str(), d.help.c_str());
    std::exit(0);
  }
  for (const auto& [name, value] : values_) {
    std::fprintf(stderr, "%s: unknown flag --%s=%s\n", program_.c_str(),
                 name.c_str(), value.c_str());
    std::exit(2);
  }
}

}  // namespace ccref

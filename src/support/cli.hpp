// Minimal command-line flag parsing for bench/example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--flag`. Unknown
// flags are an error so typos in experiment sweeps fail loudly, and
// malformed numeric values exit 2 with a message naming the flag rather
// than aborting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccref {

/// Strict whole-string unsigned parse with a range check. Rejects signs,
/// whitespace, trailing junk, and out-of-range values; the flag helpers
/// below build their exit-2 diagnostics on top of this.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(std::string_view text,
                                                      std::uint64_t min,
                                                      std::uint64_t max);

/// Byte-size parse on top of parse_uint: a whole-string unsigned value with
/// an optional binary suffix K/M/G/T (either case), e.g. "512M" = 512 MiB,
/// "64k" = 64 KiB. Rejects bare suffixes, trailing junk ("5GB"), values
/// whose multiplication would overflow, and results outside [min, max].
[[nodiscard]] std::optional<std::uint64_t> parse_size(std::string_view text,
                                                      std::uint64_t min,
                                                      std::uint64_t max);

class Cli {
 public:
  Cli(int argc, char** argv);

  /// Declare flags with defaults; returns parsed value. Declaration order
  /// doubles as --help order. Malformed or out-of-range values print a
  /// message naming the flag to stderr and exit 2.
  [[nodiscard]] std::int64_t int_flag(std::string_view name,
                                      std::int64_t def,
                                      std::string_view help = "");
  [[nodiscard]] std::uint64_t uint_flag(std::string_view name,
                                        std::uint64_t def, std::uint64_t min,
                                        std::uint64_t max,
                                        std::string_view help = "");
  /// A finite decimal in [min, max]; pass infinity for an open end.
  [[nodiscard]] double double_flag(std::string_view name, double def,
                                   double min, double max,
                                   std::string_view help = "");
  [[nodiscard]] bool bool_flag(std::string_view name, bool def,
                               std::string_view help = "");
  [[nodiscard]] std::string str_flag(std::string_view name,
                                     std::string_view def,
                                     std::string_view help = "");
  /// Byte-size flag accepting K/M/G/T suffixes ("--mem 512M"); `def` is the
  /// default spelled the same way (e.g. "64M") so --help shows the idiom.
  [[nodiscard]] std::uint64_t size_flag(std::string_view name,
                                        std::string_view def,
                                        std::uint64_t min, std::uint64_t max,
                                        std::string_view help = "");

  /// Call after all flags are declared: rejects unknown flags, handles
  /// --help (prints usage and exits 0).
  void finish();

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  struct Decl {
    std::string name;
    std::string def;
    std::string help;
  };
  std::string program_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
  std::vector<Decl> decls_;
  bool help_requested_ = false;
};

}  // namespace ccref

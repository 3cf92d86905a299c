// Shared storage-tier flag block for the bench/example binaries.
//
// Every driver that runs the checker takes the same three flags:
//
//   --mem 64M           RAM budget for state storage (K/M/G/T suffixes)
//   --hash-compact      store 64-bit fingerprints instead of state vectors
//   --external DIR      disk-resident visited set: partitioned fingerprint
//                       runs + delayed duplicate detection, sized from
//                       --mem (external_set.hpp)
//
// Declaring them here keeps the spelling and the --help text identical
// across binaries. An --external directory that cannot be created is an
// option error (exit 2), not a silent RAM-only run.
//
// The engine flags beside them are declared here too, each by the
// binaries that take it:
//
//   --jobs N            worker threads (1 = the sequential engine)
//   --symmetry MODE     off | canonical
//   --compress MODE     off | collapse
//   --fairness MODE     none | weak | strong (for --ltl)
//
// A bad mode prints "bad --X value '...' (choices)" and exits 2 as the
// flag is declared, as a malformed number does.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "support/cli.hpp"
#include "support/run_file.hpp"
#include "verify/collapse.hpp"
#include "verify/external_set.hpp"
#include "verify/liveness.hpp"
#include "verify/symmetry.hpp"

namespace ccref {

struct StorageFlags {
  std::size_t memory_limit = 0;
  bool hash_compact = false;
  verify::ExternalPolicy external;  // empty dir when --external not given

  /// Thread the flags into a checker's CheckOptions.
  template <class Options>
  void apply(Options& o) const {
    o.memory_limit = memory_limit;
    o.hash_compact = hash_compact;
    o.external = external;
  }
};

[[nodiscard]] inline StorageFlags storage_flags(Cli& cli,
                                                std::string_view mem_def) {
  StorageFlags f;
  f.memory_limit = static_cast<std::size_t>(
      cli.size_flag("mem", mem_def, 1u << 20,
                    std::numeric_limits<std::uint64_t>::max(),
                    "state-memory limit, e.g. 64M or 2G"));
  f.hash_compact = cli.bool_flag(
      "hash-compact", false,
      "store 64-bit fingerprints per state (reports omission probability)");
  std::string ext_dir = cli.str_flag(
      "external", "",
      "directory for the disk-resident visited set (delayed duplicate "
      "detection; default: none)");
  if (!ext_dir.empty()) {
    if (!ensure_run_dir(ext_dir)) {
      std::fprintf(stderr, "--external: cannot create directory '%s'\n",
                   ext_dir.c_str());
      std::exit(2);
    }
    f.external.dir = std::move(ext_dir);
  }
  return f;
}

[[nodiscard]] inline unsigned jobs_flag(Cli& cli) {
  return static_cast<unsigned>(cli.uint_flag(
      "jobs", 1, 1, 1024, "worker threads (1 = sequential engine)"));
}

/// A flag naming one of `choices`, read by `parse`.
template <class Mode>
[[nodiscard]] Mode mode_flag(Cli& cli, const char* name, const char* def,
                             const char* what, const char* choices,
                             std::optional<Mode> (*parse)(std::string_view)) {
  const std::string text =
      cli.str_flag(name, def, std::string(what) + ": " + choices);
  if (auto mode = parse(text)) return *mode;
  std::fprintf(stderr, "bad --%s value '%s' (%s)\n", name, text.c_str(),
               choices);
  std::exit(2);
}

[[nodiscard]] inline verify::SymmetryMode symmetry_flag(Cli& cli) {
  return mode_flag(cli, "symmetry", "off", "symmetry reduction",
                   "off | canonical", &verify::parse_symmetry);
}

[[nodiscard]] inline verify::CompressionMode compress_flag(Cli& cli) {
  return mode_flag(cli, "compress", "off", "state-vector compression",
                   "off | collapse", &verify::parse_compression);
}

[[nodiscard]] inline verify::FairnessMode fairness_flag(Cli& cli) {
  return mode_flag(cli, "fairness", "weak", "fairness for --ltl",
                   "none | weak | strong", &verify::parse_fairness);
}

/// The progress check stores full states in RAM: --hash-compact and
/// --external reach the safety runs only. Say so before it runs, so an
/// Unfinished progress verdict after a finished safety run is explained.
inline void note_progress_storage(const StorageFlags& f) {
  if (f.hash_compact || f.external.enabled())
    std::printf("note: the progress check stores full states; "
                "--hash-compact and --external apply to the safety run "
                "only\n");
}

}  // namespace ccref

// Shared storage-tier flag block for the bench/example binaries.
//
// Every driver that runs the checker takes the same eight flags:
//
//   --mem 64M           RAM budget for state storage (K/M/G/T suffixes)
//   --hash-compact      store 64-bit fingerprints instead of state vectors
//   --spill DIR         mmap-backed overflow for pools and dictionaries
//   --spill-cap SIZE    cap on spill bytes (0 = whatever the disk holds)
//   --spill-watermark   RAM use past which fresh chunks spill
//                       (0 = half of --mem, leaving the tables headroom)
//   --external DIR      disk-resident visited set: partitioned fingerprint
//                       runs + delayed duplicate detection (external_set.hpp)
//   --external-watermark N  pending fingerprints per partition before a
//                       merge (0 = sized from --mem)
//
// Declaring them here keeps the spelling and the --help text identical
// across binaries, and owns the SpillArena so callers just thread
// `flags.spill` into CheckOptions. A --spill or --external directory that
// cannot be created is an option error (exit 2), not a silent RAM-only run.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>

#include "support/cli.hpp"
#include "support/run_file.hpp"
#include "support/spill.hpp"
#include "verify/external_set.hpp"

namespace ccref {

struct StorageFlags {
  std::size_t memory_limit = 0;
  bool hash_compact = false;
  std::unique_ptr<SpillArena> arena;  // null when --spill was not given
  SpillPolicy spill;                  // default-null policy without an arena
  verify::ExternalPolicy external;    // empty dir when --external not given
};

[[nodiscard]] inline StorageFlags storage_flags(Cli& cli,
                                                std::string_view mem_def) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  StorageFlags f;
  f.memory_limit = static_cast<std::size_t>(
      cli.size_flag("mem", mem_def, 1u << 20, kMax,
                    "state-memory limit, e.g. 64M or 2G"));
  f.hash_compact = cli.bool_flag(
      "hash-compact", false,
      "store 64-bit fingerprints per state (reports omission probability)");
  std::string dir = cli.str_flag(
      "spill", "", "directory for mmap-backed pool overflow (default: none)");
  auto cap = static_cast<std::size_t>(cli.size_flag(
      "spill-cap", "0", 0, kMax, "max spill bytes (0: unlimited)"));
  auto watermark = static_cast<std::size_t>(cli.size_flag(
      "spill-watermark", "0", 0, kMax,
      "RAM use past which chunks spill (0: half of --mem)"));
  if (!dir.empty()) {
    f.arena = std::make_unique<SpillArena>(dir, cap == 0 ? kMax : cap);
    if (!f.arena->ok()) {
      std::fprintf(stderr, "--spill: cannot create directory '%s'\n",
                   dir.c_str());
      std::exit(2);
    }
    f.spill = {f.arena.get(),
               watermark == 0 ? f.memory_limit / 2 : watermark};
  }
  std::string ext_dir = cli.str_flag(
      "external", "",
      "directory for the disk-resident visited set (delayed duplicate "
      "detection; default: none)");
  auto ext_watermark = static_cast<std::size_t>(cli.size_flag(
      "external-watermark", "0", 0, kMax,
      "pending fingerprints per partition before a merge (0: from --mem)"));
  if (!ext_dir.empty()) {
    if (!ensure_run_dir(ext_dir)) {
      std::fprintf(stderr, "--external: cannot create directory '%s'\n",
                   ext_dir.c_str());
      std::exit(2);
    }
    f.external.dir = std::move(ext_dir);
    f.external.watermark = ext_watermark;
  }
  return f;
}

}  // namespace ccref

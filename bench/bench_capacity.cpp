// Experiment CAP — breaking the paper's 64 MB wall with storage tiers:
//
// Table 3 caps every verification at 64 MB of state memory; past the wall
// the checker reports Unfinished with however many states fit. This bench
// sweeps the asynchronous migratory and invalidate protocols across that
// same budget under each storage tier —
//
//   full          one byte vector per state (the Table-3 baseline)
//   collapse      COLLAPSE index tuples + component dictionaries
//   hash-compact  one 64-bit fingerprint per state (omission probability
//                 reported; violations stay exact)
//   external      disk-resident visited set: partitioned fingerprint runs
//                 with delayed duplicate detection (rows emitted only when
//                 --external DIR is given; reports disk bytes and merge
//                 passes in --json)
//
// and then re-runs the Table-3 wall configurations (migratory N=5 at
// 32 MB, invalidate N=5 with symmetry at 16 MB) to show the tiers turning
// Unfinished into a finished verdict inside the same RAM cap.
//
// `--smoke` is the CI gate: small configurations walled for full storage,
// plus an in-RAM reference run per protocol — exit 1 unless every other
// tier finishes with the reference verdict and state count.
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/storage_cli.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"

using namespace ccref;

namespace {

struct Tier {
  const char* name;
  verify::CompressionMode compress = verify::CompressionMode::Off;
  bool hash_compact = false;
  bool external = false;
};

constexpr Tier kFull{"full"};
constexpr Tier kCollapse{"collapse", verify::CompressionMode::Collapse};
constexpr Tier kHashCompact{"hash-compact", verify::CompressionMode::Off,
                            true};
constexpr Tier kExternal{"external", verify::CompressionMode::Off, false,
                         true};

std::string cell(const verify::CheckResult& r) {
  if (r.status == verify::Status::Unfinished)
    return strf("Unfinished (%zu+)", r.states);
  std::string c = strf("%zu/%.2f", r.states, r.seconds);
  if (r.external_bytes >= (1u << 20))
    c += strf(" +%zuMB disk", r.external_bytes >> 20);
  else if (r.external_bytes > 0)
    c += strf(" +%zuKB disk", (r.external_bytes + 1023) >> 10);
  return c;
}

struct Runner {
  unsigned jobs = 1;
  const verify::ExternalPolicy* external = nullptr;  // null: external skipped
  Table table{{"Protocol", "N", "Mem", "Symmetry", "Tier",
               "States/s (async)"}};
  JsonArrayFile json;

  verify::CheckResult run(const runtime::AsyncSystem& sys, std::size_t mem,
                          verify::SymmetryMode symmetry, const Tier& tier) {
    verify::CheckOptions<runtime::AsyncSystem> opts;
    opts.memory_limit = mem;
    opts.want_trace = false;
    opts.symmetry = symmetry;
    opts.compress = tier.compress;
    opts.hash_compact = tier.hash_compact;
    if (tier.external && external != nullptr) opts.external = *external;
    return jobs <= 1 ? verify::explore(sys, opts)
                     : verify::par_explore(sys, opts, jobs);
  }

  verify::CheckResult row(const char* name, const runtime::AsyncSystem& sys,
                          int n, std::size_t mem,
                          verify::SymmetryMode symmetry, const Tier& tier) {
    auto r = run(sys, mem, symmetry, tier);
    JsonObject o;
    o.field("bench", "capacity")
        .field("protocol", name)
        .field("n", n)
        .field("semantics", "asynchronous")
        .field("engine", jobs <= 1 ? "seq" : "par")
        .field("jobs", static_cast<int>(jobs))
        .field("symmetry", verify::to_string(symmetry))
        .field("tier", tier.name)
        .field("mem_bytes", mem)
        .field("status", verify::to_string(r.status))
        .field("states", r.states)
        .field("transitions", r.transitions)
        .field("seconds", r.seconds)
        .field("memory_bytes", r.memory_bytes)
        .field("external_bytes", r.external_bytes)
        .field("merge_passes", r.merge_passes)
        .field("merge_bytes_read", r.merge_bytes_read)
        .field("merge_bytes_written", r.merge_bytes_written)
        .field("waste_bytes", r.waste_bytes)
        .field("omission_probability", r.omission_probability);
    if (!r.note.empty()) o.field("note", r.note);
    json.push(o);
    table.row({name, strf("%d", n), strf("%zuM", mem >> 20),
               verify::to_string(symmetry), tier.name, cell(r)});
    return r;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  StorageFlags storage = storage_flags(cli, "64M");
  auto jobs = static_cast<unsigned>(cli.uint_flag(
      "jobs", 1, 1, 1024, "worker threads (1 = sequential engine)"));
  bool smoke = cli.bool_flag(
      "smoke", false,
      "CI gate: small configurations, verdict agreement asserted");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();
  // --hash-compact makes no sense here (the sweep runs every tier); the
  // flag exists because storage_flags declares the uniform block, but a
  // request for it would silently duplicate the hash-compact rows.
  if (storage.hash_compact) {
    std::fprintf(stderr,
                 "--hash-compact is implied by the tier sweep; drop it\n");
    return 2;
  }

  const std::size_t mem = storage.memory_limit;
  Runner runner;
  runner.jobs = jobs;
  if (storage.external.enabled()) runner.external = &storage.external;

  auto migratory = protocols::make_migratory();
  auto invalidate = protocols::make_invalidate();
  auto rp_mig = refine::refine(migratory);
  auto rp_inv = refine::refine(invalidate);

  std::vector<Tier> tiers{kFull, kCollapse, kHashCompact};
  if (runner.external) tiers.push_back(kExternal);

  if (smoke) {
    // CI: one walled budget per protocol, every tier, counts checked
    // against an in-RAM reference. 2 MB walls migratory N=4 (43,956
    // states) and invalidate N=3 (39,840 states) on full storage, and
    // every other tier must finish them.
    const std::size_t wall = 2u << 20;
    bool ok = true;
    auto gate = [&](const char* name, const runtime::AsyncSystem& sys,
                    int n) {
      verify::CheckOptions<runtime::AsyncSystem> ref_opts;
      ref_opts.memory_limit = 512u << 20;
      ref_opts.want_trace = false;
      auto ref = verify::explore(sys, ref_opts);
      if (ref.status != verify::Status::Ok) {
        std::fprintf(stderr, "%s n=%d: reference run %s\n", name, n,
                     verify::to_string(ref.status));
        ok = false;
        return;
      }
      for (const auto& tier : tiers) {
        auto r = runner.row(name, sys, n, wall, verify::SymmetryMode::Off,
                            tier);
        const bool must_finish =
            tier.compress != verify::CompressionMode::Off ||
            tier.hash_compact || tier.external;
        if (must_finish &&
            (r.status != verify::Status::Ok || r.states != ref.states)) {
          std::fprintf(stderr,
                       "CAPACITY GATE FAILED: %s n=%d tier=%s: %s "
                       "%zu states vs reference %zu\n",
                       name, n, tier.name, verify::to_string(r.status),
                       r.states, ref.states);
          ok = false;
        }
      }
    };
    gate("Migratory", runtime::AsyncSystem(rp_mig, 4), 4);
    gate("Invalidate", runtime::AsyncSystem(rp_inv, 3), 3);
    runner.table.print(std::cout);
    if (!json_path.empty() && !runner.json.write(json_path)) return 1;
    if (!ok) return 1;
    std::printf("\ncapacity gate passed: every tier but full storage "
                "finished the walled runs with reference-exact counts\n");
    return 0;
  }

  std::printf(
      "CAP: storage tiers vs the %zu MB wall (asynchronous semantics, "
      "%u job%s)\n\n",
      mem >> 20, jobs, jobs == 1 ? "" : "s");

  for (int n : {3, 4, 5, 6})
    for (const auto& tier : tiers)
      runner.row("Migratory", runtime::AsyncSystem(rp_mig, n), n, mem,
                 verify::SymmetryMode::Off, tier);
  // Invalidate stops at N=5: ~29M plain states — every tier's table is
  // budget-bound long before then, so N=6 adds minutes, not information.
  for (int n : {3, 4, 5})
    for (const auto& tier : tiers)
      runner.row("Invalidate", runtime::AsyncSystem(rp_inv, n), n, mem,
                 verify::SymmetryMode::Off, tier);

  // The Table-3 wall rows: configurations the seed build leaves Unfinished
  // at these budgets, finished by COLLAPSE and hash compaction.
  for (const auto& tier : tiers)
    runner.row("Migratory", runtime::AsyncSystem(rp_mig, 5), 5, 32u << 20,
               verify::SymmetryMode::Off, tier);
  for (const auto& tier : tiers)
    runner.row("Invalidate", runtime::AsyncSystem(rp_inv, 5), 5, 16u << 20,
               verify::SymmetryMode::Canonical, tier);

  runner.table.print(std::cout);
  std::printf(
      "\nreading: at 64 MB full storage walls at migratory N=6 / invalidate "
      "N=4;\nCOLLAPSE finishes invalidate N=4 exactly, hash compaction "
      "finishes both\n(omission probability reported in --json), and "
      "--external DIR moves the\nvisited set itself to disk, past the table "
      "cap every RAM tier stops at.\n");
  if (!json_path.empty() && !runner.json.write(json_path)) return 1;
  return 0;
}

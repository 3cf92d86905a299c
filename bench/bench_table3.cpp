// Experiment T3 — reproduces Table 3 of the paper:
//
//   "Number of states visited and time taken in seconds for reachability
//    analysis of the rendezvous and asynchronous versions of the migratory
//    and invalidate protocols. All verifications were limited to 64MB."
//
// Paper-reported values (SPIN, 1997):
//   migratory  N=2: async 23163/2.84s,  rendezvous 54/0.1s
//   migratory  N=4: async Unfinished,   rendezvous 235/0.4s
//   migratory  N=8: async Unfinished,   rendezvous 965/0.5s
//   invalidate N=2: async 193389/19.2s, rendezvous 546/0.6s
//   invalidate N=4: async Unfinished,   rendezvous 18686/2.3s
//   invalidate N=6: async Unfinished,   rendezvous 228334/18.4s
//
// Our checker stores states more compactly than SPIN 2.x, so the absolute
// counts are smaller and the 64MB wall moves out by ~2 nodes; the *shape* —
// rendezvous orders of magnitude cheaper, asynchronous exploration
// exhausting memory as N grows — is the result under test.
//
// `--jobs N` (default 1 = the sequential engine, bit-identical to all prior
// results) switches to the parallel engine; Ok-status state and transition
// counts are engine-independent. `--json path` dumps machine-readable rows.
#include <cstdio>
#include <iostream>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/storage_cli.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"

using namespace ccref;

namespace {

std::string cell(const verify::CheckResult& r) {
  if (r.status == verify::Status::Unfinished)
    return strf("Unfinished (%zu+)", r.states);
  return strf("%zu/%.2f", r.states, r.seconds);
}

template <class Sys>
verify::CheckResult run(const Sys& sys, const StorageFlags& storage,
                        unsigned jobs, verify::SymmetryMode symmetry,
                        verify::CompressionMode compress) {
  verify::CheckOptions<Sys> opts;
  storage.apply(opts);
  opts.want_trace = false;
  opts.symmetry = symmetry;
  opts.compress = compress;
  return jobs <= 1 ? verify::explore(sys, opts)
                   : verify::par_explore(sys, opts, jobs);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  StorageFlags storage = storage_flags(cli, "64M");
  bool extend = cli.bool_flag("extended", true,
                              "also run N beyond the paper's table");
  const unsigned jobs = jobs_flag(cli);
  const auto symmetry = symmetry_flag(cli);
  const auto compress = compress_flag(cli);
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();

  std::printf("Table 3: states visited / seconds for reachability analysis\n");
  std::printf("(verifications limited to %zu MB of state memory, %u job%s%s%s)\n\n",
              storage.memory_limit >> 20, jobs, jobs == 1 ? "" : "s",
              storage.hash_compact ? ", hash-compact" : "",
              storage.external.enabled() ? ", external" : "");

  Table table({"Protocol", "N", "Asynchronous protocol",
               "Rendezvous protocol"});
  JsonArrayFile json;

  auto record = [&](const char* name, int n, const char* semantics,
                    const verify::CheckResult& r) {
    JsonObject o;
    o.field("bench", "table3")
        .field("protocol", name)
        .field("n", n)
        .field("semantics", semantics)
        .field("engine", jobs <= 1 ? "seq" : "par")
        .field("jobs", static_cast<int>(jobs))
        .field("symmetry", verify::to_string(symmetry))
        .field("compress", verify::to_string(compress))
        .field("status", verify::to_string(r.status))
        .field("states", r.states)
        .field("transitions", r.transitions)
        .field("seconds", r.seconds)
        .field("memory_bytes", r.memory_bytes)
        .field("hash_compact", storage.hash_compact)
        .field("omission_probability", r.omission_probability)
        .field("external_bytes", r.external_bytes)
        .field("merge_passes", r.merge_passes)
        .field("merge_bytes_read", r.merge_bytes_read)
        .field("merge_bytes_written", r.merge_bytes_written)
        .field("waste_bytes", r.waste_bytes)
        .field("pool_bytes", r.pool_bytes)
        .field("raw_pool_bytes", r.raw_pool_bytes)
        .field("compression_ratio",
               r.pool_bytes ? static_cast<double>(r.raw_pool_bytes) /
                                  static_cast<double>(r.pool_bytes)
                            : 0.0);
    if (!r.note.empty()) o.field("note", r.note);
    json.push(o);
  };

  auto run_rows = [&](const char* name, const ir::Protocol& p,
                      std::vector<int> ns) {
    auto rp = refine::refine(p);
    for (int n : ns) {
      auto rv = run(sem::RendezvousSystem(p, n), storage, jobs, symmetry,
                    compress);
      auto as = run(runtime::AsyncSystem(rp, n), storage, jobs, symmetry,
                    compress);
      record(name, n, "rendezvous", rv);
      record(name, n, "asynchronous", as);
      table.row({name, strf("%d", n), cell(as), cell(rv)});
    }
  };

  auto migratory = protocols::make_migratory();
  auto invalidate = protocols::make_invalidate();
  run_rows("Migratory", migratory,
           extend ? std::vector<int>{2, 4, 6, 8} : std::vector<int>{2, 4, 8});
  run_rows("Invalidate", invalidate,
           extend ? std::vector<int>{2, 3, 4, 6} : std::vector<int>{2, 4, 6});

  table.print(std::cout);
  std::printf(
      "\npaper (SPIN): migratory async 23163/2.84 at N=2, Unfinished at "
      "N=4,8;\n              rendezvous 54/235/965 at N=2/4/8; invalidate "
      "async Unfinished beyond N=2.\n");
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}

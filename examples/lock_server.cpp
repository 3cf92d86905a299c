// Beyond cache coherence: a centralized lock server refined by the same
// procedure (the paper's claim that the rules cover "large classes of DSM
// protocols" — any star-topology client/server rendezvous protocol).
//
// Verifies mutual exclusion at both semantics, confirms the acq/grant fusion
// and forward progress, then runs a lock convoy through the discrete-event
// simulator and prints per-client acquisition counts and the wait
// distribution.
#include <cstdio>
#include <iostream>

#include "ltl/check.hpp"
#include "protocols/lockserver.hpp"
#include "refine/abstraction.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "sim/des.hpp"
#include "support/cli.hpp"
#include "support/storage_cli.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"
#include "verify/progress.hpp"

using namespace ccref;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  int n = static_cast<int>(
      cli.uint_flag("clients", 6, 1, 64, "number of clients"));
  int locks = static_cast<int>(cli.uint_flag(
      "acquisitions", 50, 1, 1u << 20, "lock/unlock pairs per client"));
  StorageFlags storage = storage_flags(cli, "512M");
  const unsigned jobs = jobs_flag(cli);
  const auto symmetry = symmetry_flag(cli);
  std::string ltl_text = cli.str_flag(
      "ltl", "", "LTL property to check on the asynchronous system, "
                 "e.g. \"G (requested(0) -> F granted(0))\"");
  const auto fairness = fairness_flag(cli);
  const auto compress = compress_flag(cli);
  cli.finish();

  auto p = protocols::make_lock_server();

  // ---- verify ------------------------------------------------------------------
  const int check_n = std::min(n, 3);
  sem::RendezvousSystem rendezvous(p, check_n);
  auto refined = refine::refine(p);
  verify::CheckOptions<sem::RendezvousSystem> rv_opts;
  storage.apply(rv_opts);
  rv_opts.symmetry = symmetry;
  rv_opts.compress = compress;
  rv_opts.invariant = protocols::lock_server_invariant(p, check_n);
  auto rv = jobs <= 1 ? verify::explore(rendezvous, rv_opts)
                      : verify::par_explore(rendezvous, rv_opts, jobs);
  std::printf("rendezvous mutual exclusion (%d clients): %s (%zu states)\n",
              check_n, verify::to_string(rv.status), rv.states);

  runtime::AsyncSystem async(refined, check_n);
  // Validate user-supplied LTL before the exploration so a typo fails fast.
  if (!ltl_text.empty()) {
    auto compiled = ltl::compile(async, ltl_text);
    if (!compiled.error.empty()) {
      std::fprintf(stderr, "bad --ltl property: %s\n",
                   compiled.error.c_str());
      return 2;
    }
  }
  verify::CheckOptions<runtime::AsyncSystem> as_opts;
  storage.apply(as_opts);
  as_opts.symmetry = symmetry;
  as_opts.compress = compress;
  as_opts.invariant = protocols::lock_server_async_invariant(p, check_n);
  as_opts.edge_check = refine::make_simulation_checker(async, rendezvous);
  auto as = jobs <= 1 ? verify::explore(async, as_opts)
                      : verify::par_explore(async, as_opts, jobs);
  std::printf("asynchronous + Equation 1 (%d clients): %s (%zu states)\n",
              check_n, verify::to_string(as.status), as.states);
  if (!as.note.empty()) std::printf("  note: %s\n", as.note.c_str());
  note_progress_storage(storage);
  auto prog = verify::check_progress(async,
                                     {.memory_limit = storage.memory_limit,
                                      .symmetry = symmetry,
                                      .compress = compress});
  if (prog.status != verify::Status::Ok)
    std::printf("forward progress: %s after %zu states\n",
                verify::to_string(prog.status), prog.states);
  else
    std::printf("forward progress: %zu doomed states\n", prog.doomed);
  if (rv.status != verify::Status::Ok || as.status != verify::Status::Ok ||
      prog.status != verify::Status::Ok || prog.doomed != 0)
    return 1;

  if (!ltl_text.empty()) {
    verify::LivenessOptions lopts;
    lopts.memory_limit = storage.memory_limit;
    lopts.fairness = fairness;
    lopts.symmetry = symmetry;
    lopts.compress = compress;
    auto live = ltl::check_ltl(async, ltl_text, lopts);
    std::printf("ltl %s under %s fairness: %s, %zu product states\n",
                ltl_text.c_str(), verify::to_string(fairness),
                verify::to_string(live.status), live.states);
    if (!live.note.empty()) std::printf("  note: %s\n", live.note.c_str());
    if (live.status != verify::Status::Ok) {
      std::printf("  %s\n", live.violation.c_str());
      for (const auto& step : live.stem)
        std::printf("  %s\n", step.c_str());
      for (const auto& step : live.cycle)
        std::printf("  (cycle) %s\n", step.c_str());
      return 1;
    }
  }
  std::printf("\n");

  // ---- simulate a convoy ---------------------------------------------------------
  // Every client hammers the one lock with no think time between pairs.
  refine::Options sim_opts_r;
  sim_opts_r.channel_capacity = 16;
  auto sim_refined = refine::refine(p, sim_opts_r);
  sim::SyntheticConfig cfg;
  cfg.kind = "lock_server";
  cfg.nodes = static_cast<std::uint32_t>(n);
  cfg.ops_per_node = static_cast<std::uint32_t>(locks);
  cfg.addresses = 1;
  cfg.think_mean = 0;
  sim::SyntheticSource src(p, cfg);
  // Far above what a finishing convoy needs, so a run that only nacks and
  // retries ends as a stall instead of running forever.
  sim::DesOptions dopts;
  dopts.max_events = 1000ull * 2 * cfg.nodes * cfg.ops_per_node;
  auto stats = sim::des_simulate(sim_refined, src, dopts);
  if (!stats.finished) {
    std::fprintf(stderr, "simulation stalled: %s\n",
                 stats.stall.to_string().c_str());
    return 1;
  }

  Table table({"Client", "Acquisitions"});
  for (int i = 0; i < n; ++i)
    table.row({strf("r%d", i),
               strf("%llu", static_cast<unsigned long long>(
                                stats.nodes[i].completed / 2))});
  table.print(std::cout);
  std::printf("\nwait per lock/unlock op (cycles): p50 %llu, p99 %llu, "
              "max %llu\n",
              static_cast<unsigned long long>(stats.latency.percentile(0.5)),
              static_cast<unsigned long long>(stats.latency.percentile(0.99)),
              static_cast<unsigned long long>(stats.latency.max()));
  std::printf("%llu messages for %llu lock/unlock pairs (%.2f msgs/pair); "
              "%llu nacks\n",
              static_cast<unsigned long long>(stats.messages()),
              static_cast<unsigned long long>(stats.ops_total / 2),
              2.0 * stats.msgs_per_op(),
              static_cast<unsigned long long>(stats.nack));
  return 0;
}

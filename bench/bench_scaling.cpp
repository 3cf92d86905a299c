// Experiment F-SCALE — the §5 scaling claim:
//
//   "the rendezvous migratory protocol could be model checked for up to 64
//    nodes using 32MB of memory, while the asynchronous protocol can be
//    model checked for only two nodes using 64MB of memory."
//
// Sweeps N for both semantics and reports states / time / memory, with the
// per-run limits from the paper (32 MB rendezvous, 64 MB asynchronous).
//
// `--sweep` switches to the SCALE experiment instead: the lock-free
// parallel engine on the asynchronous migratory and invalidate protocols
// at fixed N, jobs in {1,2,4,8,max} crossed with compression off/collapse,
// reporting states/sec and speedup versus the jobs=1 run of the same
// configuration. `--assert-jobs J --assert-speedup S` turns the sweep into
// a CI gate: exit 1 unless every configuration reaches speedup >= S at
// jobs=J (only meaningful on a machine with >= J hardware threads).
#include <algorithm>
#include <cstdio>
#include <limits>
#include <iostream>
#include <map>
#include <thread>
#include <vector>

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

double states_per_sec(const verify::CheckResult& r) {
  return r.seconds > 0 ? static_cast<double>(r.states) / r.seconds : 0.0;
}

int run_sweep(std::size_t as_mem, unsigned sweep_n, unsigned assert_jobs,
              double assert_speedup, const std::string& assert_protocol,
              const std::string& json_path) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> jobs_sweep{1, 2, 4, 8, hw};
  std::sort(jobs_sweep.begin(), jobs_sweep.end());
  jobs_sweep.erase(std::unique(jobs_sweep.begin(), jobs_sweep.end()),
                   jobs_sweep.end());

  std::printf(
      "SCALE: lock-free parallel engine, asynchronous semantics, N=%u\n"
      "hardware threads: %u (speedups beyond %u jobs cannot materialize "
      "here)\n\n",
      sweep_n, hw, hw);
  Table table({"Protocol", "Compress", "Jobs", "Status", "States",
               "Time (s)", "States/s", "Speedup"});
  JsonArrayFile json;

  struct Config {
    const char* name;
    ir::Protocol proto;
  };
  Config configs[] = {{"Migratory", protocols::make_migratory()},
                      {"Invalidate", protocols::make_invalidate()}};
  bool asserts_ok = true;

  for (auto& cfg : configs) {
    auto rp = refine::refine(cfg.proto);
    runtime::AsyncSystem sys(rp, static_cast<int>(sweep_n));
    for (auto compress :
         {verify::CompressionMode::Off, verify::CompressionMode::Collapse}) {
      double base_seconds = 0;
      for (unsigned jobs : jobs_sweep) {
        verify::CheckOptions<runtime::AsyncSystem> opts;
        opts.memory_limit = as_mem;
        opts.want_trace = false;
        opts.compress = compress;
        auto r = jobs <= 1 ? verify::explore(sys, opts)
                           : verify::par_explore(sys, opts, jobs);
        if (jobs == 1) base_seconds = r.seconds;
        const double speedup =
            r.seconds > 0 ? base_seconds / r.seconds : 0.0;
        table.row({cfg.name, verify::to_string(compress), strf("%u", jobs),
                   verify::to_string(r.status), strf("%zu", r.states),
                   strf("%.3f", r.seconds), strf("%.0f", states_per_sec(r)),
                   strf("%.2fx", speedup)});
        JsonObject o;
        o.field("bench", "scale_sweep")
            .field("protocol", cfg.name)
            .field("semantics", "asynchronous")
            .field("n", static_cast<int>(sweep_n))
            .field("engine", jobs <= 1 ? "seq" : "par")
            .field("jobs", static_cast<int>(jobs))
            .field("shards", static_cast<int>(jobs))
            .field("compress", verify::to_string(compress))
            .field("status", verify::to_string(r.status))
            .field("states", r.states)
            .field("transitions", r.transitions)
            .field("seconds", r.seconds)
            .field("states_per_sec", states_per_sec(r))
            .field("speedup_vs_1", speedup)
            .field("memory_bytes", r.memory_bytes)
            .field("external_bytes", r.external_bytes)
            .field("merge_passes", r.merge_passes)
            .field("merge_bytes_read", r.merge_bytes_read)
            .field("merge_bytes_written", r.merge_bytes_written);
        if (!r.note.empty()) o.field("note", r.note);
        json.push(o);
        const bool gated =
            assert_protocol.empty() || assert_protocol == cfg.name;
        if (gated && assert_jobs > 0 && jobs == assert_jobs &&
            speedup < assert_speedup) {
          std::fprintf(stderr,
                       "SPEEDUP ASSERT FAILED: %s compress=%s jobs=%u "
                       "speedup %.2fx < required %.2fx\n",
                       cfg.name, verify::to_string(compress), jobs, speedup,
                       assert_speedup);
          asserts_ok = false;
        }
      }
    }
  }

  table.print(std::cout);
  if (!json_path.empty() && !json.write(json_path)) return 1;
  if (!asserts_ok) return 1;
  if (assert_jobs > 0)
    std::printf("\nspeedup assertion passed: >= %.2fx at jobs=%u\n",
                assert_speedup, assert_jobs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  std::size_t rv_mem = static_cast<std::size_t>(
      cli.size_flag("rendezvous-mem", "32M", 1u << 20,
                    std::numeric_limits<std::uint64_t>::max(),
                    "rendezvous state-memory limit, e.g. 32M or 1G"));
  std::size_t as_mem = static_cast<std::size_t>(
      cli.size_flag("async-mem", "64M", 1u << 20,
                    std::numeric_limits<std::uint64_t>::max(),
                    "asynchronous state-memory limit, e.g. 64M or 2G"));
  const unsigned jobs = jobs_flag(cli);
  const auto symmetry = symmetry_flag(cli);
  const auto compress = compress_flag(cli);
  bool sweep = cli.bool_flag(
      "sweep", false,
      "run the parallel scaling sweep (jobs x compression) instead");
  auto sweep_n = static_cast<unsigned>(cli.uint_flag(
      "sweep-n", 4, 2, 16, "asynchronous node count for --sweep"));
  auto assert_jobs = static_cast<unsigned>(cli.uint_flag(
      "assert-jobs", 0, 0, 1024,
      "with --sweep: jobs level the speedup assertion applies to (0: off)"));
  double assert_speedup = cli.double_flag(
      "assert-speedup", 0.0, 0.0, std::numeric_limits<double>::infinity(),
      "with --sweep: minimum speedup_vs_1 required at --assert-jobs");
  std::string assert_protocol = cli.str_flag(
      "assert-protocol", "",
      "with --sweep: restrict the speedup assertion to this protocol "
      "(Migratory | Invalidate; empty: all)");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();

  if (sweep)
    return run_sweep(as_mem, sweep_n, assert_jobs, assert_speedup,
                     assert_protocol, json_path);

  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);

  std::printf("F-SCALE: migratory protocol, max checkable N per semantics\n\n");
  Table table({"Semantics", "N", "Status", "States", "Time (s)", "Memory"});
  JsonArrayFile json;

  auto record = [&](const char* semantics, int n,
                    const verify::CheckResult& r) {
    JsonObject o;
    o.field("bench", "scaling")
        .field("protocol", "Migratory")
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
        .field("states_per_sec", states_per_sec(r))
        .field("memory_bytes", r.memory_bytes)
        .field("pool_bytes", r.pool_bytes)
        .field("raw_pool_bytes", r.raw_pool_bytes)
        .field("external_bytes", r.external_bytes)
        .field("merge_passes", r.merge_passes)
        .field("merge_bytes_read", r.merge_bytes_read)
        .field("merge_bytes_written", r.merge_bytes_written);
    if (!r.note.empty()) o.field("note", r.note);
    json.push(o);
  };
  for (int n : {2, 4, 8, 16, 32, 64}) {
    verify::CheckOptions<sem::RendezvousSystem> opts;
    opts.memory_limit = rv_mem;
    opts.want_trace = false;
    opts.symmetry = symmetry;
    opts.compress = compress;
    sem::RendezvousSystem sys(p, n);
    auto r = jobs <= 1 ? verify::explore(sys, opts)
                       : verify::par_explore(sys, opts, jobs);
    table.row({"rendezvous (32MB)", strf("%d", n),
               verify::to_string(r.status), strf("%zu", r.states),
               strf("%.2f", r.seconds), human_bytes(r.memory_bytes)});
    record("rendezvous", n, r);
    if (r.status != verify::Status::Ok) break;
  }

  for (int n : {2, 3, 4, 5, 6, 8}) {
    verify::CheckOptions<runtime::AsyncSystem> opts;
    opts.memory_limit = as_mem;
    opts.want_trace = false;
    opts.symmetry = symmetry;
    opts.compress = compress;
    runtime::AsyncSystem sys(rp, n);
    auto r = jobs <= 1 ? verify::explore(sys, opts)
                       : verify::par_explore(sys, opts, jobs);
    table.row({"asynchronous (64MB)", strf("%d", n),
               verify::to_string(r.status), strf("%zu", r.states),
               strf("%.2f", r.seconds), human_bytes(r.memory_bytes)});
    record("asynchronous", n, r);
    if (r.status != verify::Status::Ok) break;
  }

  table.print(std::cout);
  std::printf(
      "\npaper: rendezvous checkable to N=64 in 32MB; asynchronous only N=2 "
      "in 64MB.\nOur per-state footprint is smaller than SPIN 2.x's, so the "
      "asynchronous wall sits at N=6 instead of N=4, with the same "
      "exponential shape.\n");
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}

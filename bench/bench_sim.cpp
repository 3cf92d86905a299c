// SIM — discrete-event simulator benchmarks (see DESIGN.md §4.8).
//
// Two sections:
//   throughput  open-loop lock_server arrivals: raw engine speed
//               (events/sec) and parallel-lane scaling (speedup_vs_1) as
//               the client count grows into the thousands
//   quality     refined vs generic vs hand-designed protocol variants under
//               the avalanche cost model: msgs/op and latency percentiles —
//               the paper's claim that the refined protocol is "comparable
//               in quality" to the hand design, now in cycles — plus the
//               E-MSG message economy (§3.3, §5) on one block: exact
//               per-type counts uncontended (N=1) and under contention
//               (N=4/8)
//
// `--smoke` runs a seconds-fast correctness gate (exact message counts on a
// pinned workload, a trace replay, a multi-lane run) and exits nonzero on
// any mismatch — wired into CI so the engine cannot silently rot.
//
//   ./bench_sim --json=BENCH_sim.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "sim/des.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace ccref;

namespace {

struct Timed {
  sim::DesStats stats;
  double seconds = 0;

  [[nodiscard]] double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(stats.events) / seconds : 0.0;
  }
};

Timed timed_run(const refine::RefinedProtocol& rp, sim::OpSource& src,
                const sim::DesOptions& dopts) {
  Timed t;
  const auto t0 = std::chrono::steady_clock::now();
  t.stats = sim::des_simulate(rp, src, dopts);
  t.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return t;
}

// ---- throughput: open-loop lock_server ---------------------------------

Timed lock_server_run(const ir::Protocol& p,
                      const refine::RefinedProtocol& rp, std::uint32_t nodes,
                      int lanes, std::uint64_t seed) {
  sim::SyntheticConfig cfg;
  cfg.kind = "lock_server";
  cfg.nodes = nodes;
  cfg.ops_per_node = 4;
  cfg.addresses = 64;  // 64 independent locks: work for every lane
  cfg.think_mean = 64;
  cfg.arrival_window = 4 * static_cast<std::uint64_t>(nodes);
  cfg.seed = seed;
  sim::SyntheticSource src(p, cfg);
  sim::DesOptions dopts;
  dopts.lanes = lanes;
  return timed_run(rp, src, dopts);
}

/// lock_server_run three times over. One run takes 15-85 ms, too short to
/// gate a speedup on, so the result carries the median run's seconds. Every
/// run must do the same protocol work: `agree` is false if the runs'
/// event, message or cycle counts differ.
Timed median_lock_server_run(const ir::Protocol& p,
                             const refine::RefinedProtocol& rp,
                             std::uint32_t nodes, int lanes,
                             std::uint64_t seed, bool& agree) {
  std::vector<Timed> runs;
  for (int i = 0; i < 3; ++i)
    runs.push_back(lock_server_run(p, rp, nodes, lanes, seed));
  agree = std::all_of(runs.begin(), runs.end(), [&](const Timed& t) {
    return t.stats.events == runs[0].stats.events &&
           t.stats.messages() == runs[0].stats.messages() &&
           t.stats.cycles == runs[0].stats.cycles;
  });
  std::sort(runs.begin(), runs.end(), [](const Timed& a, const Timed& b) {
    return a.seconds < b.seconds;
  });
  return runs[1];
}

// ---- quality: refined vs generic vs hand under the cost model ----------

struct Variant {
  const char* name;
  refine::Options opts;
};

/// Runs `cfg` on `p` refined with `opts`. The event budget is far above
/// what a finishing run needs, so a run that only nacks and retries ends as
/// a stall instead of running forever.
Timed quality_run(const ir::Protocol& p, const refine::Options& opts,
                  const sim::SyntheticConfig& cfg, sim::DesOptions dopts) {
  auto rp = refine::refine(p, opts);
  sim::SyntheticSource src(p, cfg);
  dopts.max_events = 1000ull * 2 * cfg.nodes * cfg.ops_per_node;
  return timed_run(rp, src, dopts);
}

/// The identity fields every quality and E-MSG row starts with.
JsonObject quality_row(const char* section, const char* protocol,
                       const char* variant, std::uint32_t n,
                       std::uint64_t seed) {
  JsonObject o;
  o.field("section", section)
      .field("protocol", protocol)
      .field("variant", variant)
      .field("n", n)
      .field("seed", seed);
  return o;
}

// ---- smoke gate --------------------------------------------------------

#define SMOKE_CHECK(cond)                                            \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "SMOKE FAIL %s:%d: %s\n", __FILE__,       \
                   __LINE__, #cond);                                 \
      return 1;                                                      \
    }                                                                \
  } while (0)

int smoke() {
  // 1. Pinned exact counts: one migratory remote, 10 acquire/release pairs
  //    — the same numbers test_des pins (10 fused req/gr + 10 LR/ack, zero
  //    nacks).
  {
    auto p = protocols::make_migratory();
    refine::Options opts;
    opts.channel_capacity = 8;
    auto rp = refine::refine(p, opts);
    sim::SyntheticConfig cfg;
    cfg.kind = "migratory";
    cfg.nodes = 1;
    cfg.ops_per_node = 10;
    cfg.write_fraction = 0.0;
    sim::SyntheticSource src(p, cfg);
    sim::DesOptions dopts;
    dopts.cost = *sim::CostModel::preset("uniform");
    auto t = timed_run(rp, src, dopts);
    SMOKE_CHECK(t.stats.finished);
    SMOKE_CHECK(t.stats.req == 20 && t.stats.repl == 10 &&
                t.stats.ack == 10 && t.stats.nack == 0);
    SMOKE_CHECK(t.stats.ops_total == 20);
    SMOKE_CHECK(t.events_per_sec() > 0);
  }
  // 2. Trace replay: a small inline trace drives the invalidate protocol to
  //    completion with one op per record.
  {
    // `1 r 0x20` re-reads a block node 1 holds in M: an already-exclusive
    // copy must serve the read (alt-goal), not wait for a downgrade to S.
    const std::string text = "0 w 0x10 0\n1 r 0x10 4\n0 evict 0x10 2\n"
                             "1 w 0x20 0\n1 r 0x20 2\n1 evict 0x20 2\n"
                             "1 evict 0x10 2\n";
    sim::Trace trace;
    std::string err;
    SMOKE_CHECK(sim::parse_trace(text, trace, err));
    auto p = protocols::make_invalidate();
    refine::Options opts;
    opts.channel_capacity = 8;
    auto rp = refine::refine(p, opts);
    sim::TraceSource src(p, trace);
    auto t = timed_run(rp, src, {});
    SMOKE_CHECK(t.stats.finished);
    SMOKE_CHECK(t.stats.ops_total == trace.records.size());
  }
  // 3. Parallel lanes agree with the single lane on protocol work.
  {
    auto p = protocols::make_lock_server();
    refine::Options opts;
    opts.channel_capacity = 8;
    auto rp = refine::refine(p, opts);
    auto one = lock_server_run(p, rp, 256, 1, 42);
    auto four = lock_server_run(p, rp, 256, 4, 42);
    SMOKE_CHECK(one.stats.finished && four.stats.finished);
    SMOKE_CHECK(one.stats.ops_total == four.stats.ops_total);
    SMOKE_CHECK(one.events_per_sec() > 0 && four.events_per_sec() > 0);
  }
  // 4. Lane imbalance: every node sticks to its own address, so no op ever
  //    crosses lanes, and two nodes carry 300x the work of the rest. The
  //    adaptive horizon must collapse the barrier count vs fixed windows
  //    while leaving the protocol work identical (same ops, same events).
  {
    std::string text;
    for (int pair = 0; pair < 1500; ++pair)
      for (int node : {0, 4})
        text += strf("%d w 0x%x 1\n%d evict 0x%x 1\n", node, node, node,
                     node);
    for (int node : {1, 2, 3, 5, 6, 7})
      for (int pair = 0; pair < 5; ++pair)
        text += strf("%d w 0x%x 1\n%d evict 0x%x 1\n", node, node, node,
                     node);
    sim::Trace trace;
    std::string err;
    SMOKE_CHECK(sim::parse_trace(text, trace, err));
    auto p = protocols::make_invalidate();
    refine::Options opts;
    opts.channel_capacity = 8;
    auto rp = refine::refine(p, opts);
    sim::DesOptions fixed;
    fixed.lanes = 4;
    fixed.window_max = 0;  // pin the old fixed-barrier cadence
    sim::DesOptions adaptive;
    adaptive.lanes = 4;
    sim::TraceSource src_f(p, trace);
    auto f = timed_run(rp, src_f, fixed);
    sim::TraceSource src_a(p, trace);
    auto a = timed_run(rp, src_a, adaptive);
    SMOKE_CHECK(f.stats.finished && a.stats.finished);
    SMOKE_CHECK(f.stats.ops_total == trace.records.size());
    SMOKE_CHECK(a.stats.ops_total == f.stats.ops_total);
    SMOKE_CHECK(a.stats.events == f.stats.events);
    SMOKE_CHECK(a.stats.messages() == f.stats.messages());
    SMOKE_CHECK(f.stats.windows > 0 && a.stats.windows > 0);
    SMOKE_CHECK(a.stats.windows * 2 <= f.stats.windows);
  }
  std::printf("bench_sim --smoke: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  bool smoke_only = cli.bool_flag(
      "smoke", false, "fast correctness gate: exact counts, then exit");
  std::uint64_t nodes_max = cli.uint_flag(
      "nodes-max", 4000, 64, 1u << 20,
      "largest lock_server client count in the throughput sweep");
  std::uint64_t seed = cli.uint_flag("seed", 42, 0, ~0ull, "workload seed");
  std::uint64_t assert_lanes = cli.uint_flag(
      "assert-lanes", 0, 0, 64,
      "exit 1 unless this lane count reaches --assert-speedup somewhere");
  double assert_speedup = cli.double_flag(
      "assert-speedup", 0.0, 0.0, std::numeric_limits<double>::infinity(),
      "required speedup_vs_1 for --assert-lanes");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();

  if (smoke_only) return smoke();

  JsonArrayFile json;

  // ---- throughput sweep -------------------------------------------------
  std::printf("SIM-THROUGHPUT: open-loop lock_server, 64 locks, "
              "4 acquire/release pairs per client\n\n");
  Table tput({"N", "lanes", "events", "cycles", "events/sec", "speedup_vs_1",
              "msgs/op", "p50", "p99"});
  auto lock_p = protocols::make_lock_server();
  refine::Options lock_opts;
  lock_opts.channel_capacity = 8;
  auto lock_rp = refine::refine(lock_p, lock_opts);
  std::vector<std::uint32_t> sweep_n;
  for (std::uint64_t n = 1000; n <= nodes_max; n *= 4)
    sweep_n.push_back(static_cast<std::uint32_t>(n));
  double best_asserted = 0;
  for (std::uint32_t n : sweep_n) {
    double base = 0;
    for (int lanes : {1, 2, 4}) {
      bool agree = true;
      auto t = median_lock_server_run(lock_p, lock_rp, n, lanes, seed, agree);
      if (!t.stats.finished) {
        std::fprintf(stderr, "N=%u lanes=%d stalled: %s\n", n, lanes,
                     t.stats.stall.to_string().c_str());
        return 1;
      }
      if (!agree) {
        std::fprintf(stderr,
                     "N=%u lanes=%d: repeated runs disagree on event, "
                     "message or cycle counts\n",
                     n, lanes);
        return 1;
      }
      if (lanes == 1) base = t.seconds;
      const double speedup = t.seconds > 0 ? base / t.seconds : 0.0;
      if (static_cast<std::uint64_t>(lanes) == assert_lanes)
        best_asserted = std::max(best_asserted, speedup);
      tput.row({strf("%u", n), strf("%d", lanes),
                strf("%llu", static_cast<unsigned long long>(t.stats.events)),
                strf("%llu", static_cast<unsigned long long>(t.stats.cycles)),
                strf("%.0f", t.events_per_sec()), strf("%.2f", speedup),
                strf("%.2f", t.stats.msgs_per_op()),
                strf("%llu", static_cast<unsigned long long>(
                                 t.stats.latency.percentile(0.5))),
                strf("%llu", static_cast<unsigned long long>(
                                 t.stats.latency.percentile(0.99)))});
      JsonObject o;
      o.field("section", "throughput")
          .field("protocol", "lockserver")
          .field("n", n)
          .field("lanes", lanes)
          .field("seed", seed)
          .field("events", t.stats.events)
          .field("cycles", t.stats.cycles)
          .field("seconds", t.seconds)
          .field("events_per_sec", t.events_per_sec())
          .field("speedup_vs_1", speedup)
          .field("windows", t.stats.windows)
          .field("msgs_per_op", t.stats.msgs_per_op())
          .field("lat_p50", t.stats.latency.percentile(0.5))
          .field("lat_p99", t.stats.latency.percentile(0.99))
          // The simulator holds everything in RAM; zeros keep the
          // disk-usage schema uniform across every bench's --json.
          .field("external_bytes", std::size_t{0});
      json.push(o);
    }
  }
  tput.print(std::cout);
  if (assert_lanes && best_asserted < assert_speedup) {
    std::fprintf(stderr,
                 "FAIL: best speedup at %llu lanes is %.2f, required %.2f\n",
                 static_cast<unsigned long long>(assert_lanes),
                 best_asserted, assert_speedup);
    return 1;
  }

  // ---- quality: refined vs hand ------------------------------------------
  std::printf("\nSIM-QUALITY: avalanche cost model, 8 nodes x 50 ops, "
              "4 blocks\n\n");
  Table qual({"Protocol", "Variant", "msgs/op", "nacks", "p50", "p99",
              "home busy"});
  refine::Options generic;
  generic.request_reply_fusion = false;
  generic.channel_capacity = 8;
  refine::Options refined;
  refined.channel_capacity = 8;
  refine::Options hand;
  hand.channel_capacity = 8;
  hand.elide_ack = {"LR"};
  // No hand variant for invalidate: eliding the drop ack is safe but not
  // live (InvalidateHand.ElidedDropIsSafeButNotLive), so generic-vs-refined
  // is the spread.
  const struct {
    const char* protocol;  // also the SyntheticConfig kind
    ir::Protocol p;
    std::vector<Variant> variants;
    std::vector<std::uint32_t> msg_nodes;  // E-MSG populations
  } quality[] = {
      {"migratory", protocols::make_migratory(),
       {{"generic (no fusion)", generic},
        {"refined (3.3)", refined},
        {"hand design (no LR ack)", hand}},
       {1, 4, 8}},
      {"invalidate", protocols::make_invalidate(),
       {{"generic (no fusion)", generic}, {"refined (3.3)", refined}},
       {4, 8}},
  };
  // 8 nodes x 50 access/release pairs, 30% stores, over 4 blocks with think
  // time, under the default (avalanche) cost model.
  sim::SyntheticConfig qual_cfg;
  qual_cfg.nodes = 8;
  qual_cfg.ops_per_node = 50;
  qual_cfg.addresses = 4;
  qual_cfg.write_fraction = 0.3;
  qual_cfg.think_mean = 32;
  qual_cfg.seed = seed;
  for (const auto& q : quality) {
    for (const auto& v : q.variants) {
      auto cfg = qual_cfg;
      cfg.kind = q.protocol;
      auto t = quality_run(q.p, v.opts, cfg, {});
      if (!t.stats.finished) {
        std::fprintf(stderr, "%s/%s stalled: %s\n", q.protocol, v.name,
                     t.stats.stall.to_string().c_str());
        return 1;
      }
      qual.row({q.protocol, v.name, strf("%.2f", t.stats.msgs_per_op()),
                strf("%llu", static_cast<unsigned long long>(t.stats.nack)),
                strf("%llu", static_cast<unsigned long long>(
                                 t.stats.latency.percentile(0.5))),
                strf("%llu", static_cast<unsigned long long>(
                                 t.stats.latency.percentile(0.99))),
                strf("%.3f", t.stats.home_occupancy())});
      auto o = quality_row("quality", q.protocol, v.name, qual_cfg.nodes,
                           seed);
      o.field("msgs_per_op", t.stats.msgs_per_op())
          .field("nacks", t.stats.nack)
          .field("lat_p50", t.stats.latency.percentile(0.5))
          .field("lat_p99", t.stats.latency.percentile(0.99))
          .field("home_occupancy", t.stats.home_occupancy())
          .field("external_bytes", std::size_t{0});
      json.push(o);
    }
  }
  qual.print(std::cout);
  std::printf(
      "\npaper: the refined protocol should track the hand design's message "
      "economy; the\ncost model turns the residual ack into a bounded p50 "
      "gap, not a throughput cliff.\n");

  // ---- E-MSG: message economy on one block ------------------------------
  std::printf("\nE-MSG: wire messages per completed operation, uniform "
              "cost model, one block, 50 pairs per node\n\n");
  Table msg({"Protocol", "Variant", "N", "Ops", "req", "ack", "nack", "repl",
             "msgs/op"});
  // The same pairs back to back on one block under the uniform model (one
  // cycle per hop, no home occupancy: the paper's §2.2 network with order
  // but no timing), so N=1 is uncontended and its counts are exact.
  auto msg_cfg = qual_cfg;
  msg_cfg.addresses = 1;
  msg_cfg.think_mean = 0;
  sim::DesOptions uniform;
  uniform.cost = *sim::CostModel::preset("uniform");
  for (const auto& q : quality) {
    for (std::uint32_t n : q.msg_nodes) {
      for (const auto& v : q.variants) {
        auto cfg = msg_cfg;
        cfg.kind = q.protocol;
        cfg.nodes = n;
        auto t = quality_run(q.p, v.opts, cfg, uniform);
        const auto& s = t.stats;
        if (!s.finished) {
          std::fprintf(stderr, "%s/%s N=%u stalled: %s\n", q.protocol,
                       v.name, n, s.stall.to_string().c_str());
          return 1;
        }
        msg.row({q.protocol, v.name, strf("%u", n),
                 strf("%llu", static_cast<unsigned long long>(s.ops_total)),
                 strf("%llu", static_cast<unsigned long long>(s.req)),
                 strf("%llu", static_cast<unsigned long long>(s.ack)),
                 strf("%llu", static_cast<unsigned long long>(s.nack)),
                 strf("%llu", static_cast<unsigned long long>(s.repl)),
                 strf("%.2f", s.msgs_per_op())});
        auto o = quality_row("msg_efficiency", q.protocol, v.name, n, seed);
        o.field("events", s.events)
            .field("ops", s.ops_total)
            .field("req", s.req)
            .field("ack", s.ack)
            .field("nack", s.nack)
            .field("repl", s.repl)
            .field("msgs_per_op", s.msgs_per_op())
            .field("lat_p50", s.latency.percentile(0.5))
            .field("lat_p99", s.latency.percentile(0.99))
            .field("external_bytes", std::size_t{0});
        json.push(o);
      }
    }
  }
  msg.print(std::cout);
  std::printf(
      "\npaper: fused req/gr and inv/ID take 2 messages per pair instead of "
      "4; the hand design\nsaves exactly one further ack per LR, so the "
      "refined protocol is 'comparable in quality'.\n");

  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}

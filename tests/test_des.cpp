// Tests for the discrete-event simulator: the event core (calendar queue,
// event pool, histogram), the cost model and trace parser, and — most
// importantly — cross-engine agreement: the refined semantics stepped in
// place under the DES scheduler (sim::des_step) must produce the same
// protocol behaviour (message counts, op completions, verdicts) as the
// random-step sim::Simulator, since both claim to implement the Tables 1/2
// asynchronous semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sim/des.hpp"
#include "sim/des_workload.hpp"
#include "sim/simulator.hpp"
#include "support/calendar_queue.hpp"
#include "support/event_pool.hpp"
#include "support/rng.hpp"

namespace ccref::sim {
namespace {

using refine::Options;
using runtime::AsyncSystem;

// ---- event core -------------------------------------------------------------

TEST(CalendarQueue, PopsInTimeOrder) {
  CalendarQueue q;
  Rng rng(42);
  std::vector<std::uint64_t> times;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t t = rng.below(100000);
    times.push_back(t);
    q.push(t, static_cast<std::uint32_t>(i));
  }
  std::sort(times.begin(), times.end());
  std::uint64_t t = 0;
  std::uint32_t p = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    ASSERT_TRUE(q.pop(t, p));
    EXPECT_EQ(t, times[i]) << "at pop " << i;
  }
  EXPECT_FALSE(q.pop(t, p));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, EnqueueBelowCurrentTimeStillPopsFirst) {
  CalendarQueue q;
  q.push(1000, 1);
  std::uint64_t t = 0;
  std::uint32_t p = 0;
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(t, 1000u);
  // The cursor sits at day(1000); an earlier enqueue must pull it back.
  q.push(10, 2);
  q.push(2000, 3);
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(t, 10u);
  EXPECT_EQ(p, 2u);
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(t, 2000u);
}

TEST(CalendarQueue, TiesBreakByPayload) {
  CalendarQueue q;
  q.push(5, 9);
  q.push(5, 3);
  q.push(5, 7);
  std::uint64_t t = 0;
  std::uint32_t p = 0;
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(p, 3u);
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(p, 7u);
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(p, 9u);
}

TEST(CalendarQueue, SparseFarFutureJump) {
  CalendarQueue q(1);  // 1-cycle days: a huge gap forces the fallback scan
  q.push(1, 1);
  std::uint64_t t = 0;
  std::uint32_t p = 0;
  ASSERT_TRUE(q.pop(t, p));
  q.push(1u << 30, 2);
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(t, std::uint64_t{1} << 30);
}

TEST(EventPool, RecyclesSlots) {
  EventPool<int> pool;
  auto a = pool.alloc();
  auto b = pool.alloc();
  pool[a] = 1;
  pool[b] = 2;
  EXPECT_EQ(pool.size(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.size(), 1u);
  auto c = pool.alloc();  // must reuse the freed slot
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool[b], 2);
}

TEST(LatencyHistogram, ExactForSmallValues) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 8; ++v) h.record(v);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(1.0), 7u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5);
}

TEST(LatencyHistogram, PercentileWithinBucketError) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.record(100);
  h.record(10000);
  // p50 lands in 100's bucket: upper edge within 12.5% above 100.
  EXPECT_GE(h.percentile(0.5), 100u);
  EXPECT_LE(h.percentile(0.5), 112u);
  EXPECT_EQ(h.percentile(1.0), 10000u);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, both;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(1u << 20);
    (i % 2 ? a : b).record(v);
    both.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.max(), both.max());
  for (double p : {0.1, 0.5, 0.9, 0.99})
    EXPECT_EQ(a.percentile(p), both.percentile(p)) << p;
}

// ---- cost model -------------------------------------------------------------

TEST(CostModel, C2CFormulaMatchesPaper) {
  CostModel m;  // block_words = 4
  EXPECT_EQ(m.c2c(8), 4 * 4 + 8 + 1u);
  EXPECT_EQ(m.latency(/*data=*/true, /*from_home=*/true, 8),
            m.memory + m.link);
  EXPECT_EQ(m.latency(true, false, 8), m.c2c(8) + m.link);
  EXPECT_EQ(m.latency(false, true, 8), m.link);
}

TEST(CostModel, Presets) {
  EXPECT_TRUE(CostModel::preset("").has_value());
  EXPECT_TRUE(CostModel::preset("avalanche").has_value());
  auto u = CostModel::preset("uniform");
  ASSERT_TRUE(u.has_value());
  EXPECT_TRUE(u->flat);
  EXPECT_EQ(u->latency(true, false, 32), u->link);
  EXPECT_EQ(u->home_occupancy, 0u);
  auto dsm = CostModel::preset("dsm");
  ASSERT_TRUE(dsm.has_value());
  EXPECT_GT(dsm->link, CostModel{}.link);
  EXPECT_FALSE(CostModel::preset("nonsense").has_value());
}

// ---- trace parser -----------------------------------------------------------

TEST(Trace, ParsesRecordsCommentsAndHex) {
  Trace t;
  std::string err;
  ASSERT_TRUE(parse_trace("# header\n"
                          "0 r 0x10 5\n"
                          "1 w 16 0   # trailing comment\n"
                          "\n"
                          "0 rel 0x10 0\n",
                          t, err))
      << err;
  ASSERT_EQ(t.records.size(), 3u);
  EXPECT_EQ(t.records[0].node, 0u);
  EXPECT_EQ(t.records[0].op, "r");
  EXPECT_EQ(t.records[0].addr, 0x10u);
  EXPECT_EQ(t.records[0].think, 5u);
  EXPECT_EQ(t.records[1].addr, 16u);
  EXPECT_EQ(t.num_nodes(), 2u);
}

TEST(Trace, RejectsBadInputWithLineNumbers) {
  Trace t;
  std::string err;
  EXPECT_FALSE(parse_trace("0 frobnicate 1 0\n", t, err));
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_FALSE(parse_trace("0 r 1\n", t, err));  // missing think field
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_FALSE(parse_trace("0 r 1 0\nnotanumber r 1 0\n", t, err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Trace, RejectsSignedFields) {
  // strtoull silently wraps a leading '-' ("-1" becomes 2^64-1), which used
  // to turn a typo'd node id into a 4-billion-node trace. All three numeric
  // fields must reject signed spellings, with the line number in the error.
  Trace t;
  std::string err;
  EXPECT_FALSE(parse_trace("-1 r 0x10 0\n", t, err));
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("bad node id '-1'"), std::string::npos) << err;
  EXPECT_FALSE(parse_trace("0 r 0x10 0\n0 r -16 0\n", t, err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("bad address '-16'"), std::string::npos) << err;
  EXPECT_FALSE(parse_trace("0 r 0x10 -2\n", t, err));
  EXPECT_NE(err.find("bad think time '-2'"), std::string::npos) << err;
  EXPECT_FALSE(parse_trace("+1 r 0x10 0\n", t, err));  // '+' wraps too
  EXPECT_NE(err.find("bad node id '+1'"), std::string::npos) << err;
}

TEST(Trace, LoadMissingFileFails) {
  Trace t;
  std::string err;
  EXPECT_FALSE(load_trace("/nonexistent/trace.txt", t, err));
  EXPECT_FALSE(err.empty());
}

// ---- cross-engine agreement -------------------------------------------------

struct Engines {
  SimStats step;  // random-step simulator
  DesStats des;   // discrete-event simulator
};

Engines run_both_migratory(int n, int cycles, Options opts = {},
                           std::uint64_t seed = 7) {
  opts.channel_capacity = 8;
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, n);
  auto w = migratory_workload(p, n, cycles);
  SimOptions sopts;
  sopts.seed = seed;
  Engines e;
  e.step = simulate(sys, w, sopts);
  WorkloadSource src(w);
  DesOptions dopts;
  dopts.cost = *CostModel::preset("uniform");
  e.des = des_simulate(rp, src, dopts);
  return e;
}

TEST(DesAgreement, MigratorySingleRemoteExactMessages) {
  // One remote, no contention: message counts are schedule-invariant, so
  // both engines must agree exactly (and match test_sim's pinned numbers).
  auto e = run_both_migratory(1, 10);
  ASSERT_TRUE(e.step.finished) << e.step.stall.to_string();
  ASSERT_TRUE(e.des.finished) << e.des.stall.to_string();
  EXPECT_EQ(e.des.ops_total, 20u);
  EXPECT_EQ(e.des.ops_total, e.step.ops_total);
  EXPECT_EQ(e.des.req, 20u);
  EXPECT_EQ(e.des.repl, 10u);
  EXPECT_EQ(e.des.ack, 10u);
  EXPECT_EQ(e.des.nack, 0u);
  EXPECT_EQ(e.des.req, e.step.req);
  EXPECT_EQ(e.des.ack, e.step.ack);
  EXPECT_EQ(e.des.nack, e.step.nack);
  EXPECT_EQ(e.des.repl, e.step.repl);
  EXPECT_DOUBLE_EQ(e.des.msgs_per_op(), 2.0);
  EXPECT_EQ(e.des.completions, e.step.completions);
}

TEST(DesAgreement, MigratoryManyRemotesSameOpsAndVerdict) {
  for (std::uint64_t seed : {7u, 99u, 12345u}) {
    auto e = run_both_migratory(6, 5, {}, seed);
    EXPECT_EQ(e.des.finished, e.step.finished) << seed;
    EXPECT_EQ(e.des.ops_total, e.step.ops_total) << seed;
    EXPECT_EQ(e.des.ops_total, 60u) << seed;
  }
}

Engines run_both_invalidate(int n, int ops, double wf, std::uint64_t seed) {
  Options opts;
  opts.channel_capacity = 8;
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, n);
  auto w = invalidate_workload(p, n, ops, wf, seed);
  SimOptions sopts;
  sopts.seed = seed;
  Engines e;
  e.step = simulate(sys, w, sopts);
  WorkloadSource src(w);
  DesOptions dopts;
  dopts.cost = *CostModel::preset("uniform");
  e.des = des_simulate(rp, src, dopts);
  return e;
}

TEST(DesAgreement, InvalidateSingleRemoteExactMessages) {
  for (std::uint64_t seed : {3u, 11u}) {
    auto e = run_both_invalidate(1, 10, 0.5, seed);
    ASSERT_TRUE(e.step.finished) << e.step.stall.to_string();
    ASSERT_TRUE(e.des.finished) << e.des.stall.to_string();
    EXPECT_EQ(e.des.ops_total, e.step.ops_total);
    EXPECT_EQ(e.des.req, e.step.req) << seed;
    EXPECT_EQ(e.des.ack, e.step.ack) << seed;
    EXPECT_EQ(e.des.nack, e.step.nack) << seed;
    EXPECT_EQ(e.des.repl, e.step.repl) << seed;
  }
}

TEST(DesAgreement, InvalidateMultiRemoteVerdicts) {
  for (std::uint64_t seed : {3u, 11u, 77u}) {
    auto e = run_both_invalidate(4, 6, 0.4, seed);
    EXPECT_EQ(e.des.finished, e.step.finished) << seed;
    EXPECT_EQ(e.des.ops_total, e.step.ops_total) << seed;
  }
}

TEST(DesAgreement, LockServerCompletes) {
  Options opts;
  opts.channel_capacity = 8;
  auto p = protocols::make_lock_server();
  auto rp = refine::refine(p, opts);
  SyntheticConfig cfg;
  cfg.kind = "lock_server";
  cfg.nodes = 8;
  cfg.ops_per_node = 3;
  cfg.think_mean = 5;
  auto src = SyntheticSource(p, cfg);
  auto stats = des_simulate(rp, src);
  ASSERT_TRUE(stats.finished) << stats.stall.to_string();
  EXPECT_EQ(stats.ops_total, 8u * 3u * 2u);  // acquire + release pairs
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_DOUBLE_EQ(stats.fairness_index(), 1.0);
}

// ---- determinism ------------------------------------------------------------

DesStats run_synthetic(const std::string& kind, std::uint32_t nodes,
                       const DesOptions& dopts, std::uint64_t seed = 1,
                       std::uint64_t addresses = 4) {
  Options opts;
  opts.channel_capacity = 8;
  auto p = kind == "lock_server"
               ? protocols::make_lock_server()
               : (kind == "invalidate" ? protocols::make_invalidate()
                                       : protocols::make_migratory());
  auto rp = refine::refine(p, opts);
  SyntheticConfig cfg;
  cfg.kind = kind;
  cfg.nodes = nodes;
  cfg.ops_per_node = 4;
  cfg.addresses = addresses;
  cfg.think_mean = 16;
  cfg.seed = seed;
  SyntheticSource src(p, cfg);
  return des_simulate(rp, src, dopts);
}

void expect_identical(const DesStats& a, const DesStats& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.messages(), b.messages());
  EXPECT_EQ(a.ops_total, b.ops_total);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.memory_accesses, b.memory_accesses);
  EXPECT_EQ(a.c2c_transfers, b.c2c_transfers);
  EXPECT_EQ(a.write_backs, b.write_backs);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.percentile(0.5), b.latency.percentile(0.5));
  EXPECT_EQ(a.latency.percentile(0.99), b.latency.percentile(0.99));
  EXPECT_EQ(a.finished, b.finished);
}

TEST(Des, DeterministicForSeedAndLanes) {
  DesOptions d;
  auto a = run_synthetic("migratory", 16, d, 5);
  auto b = run_synthetic("migratory", 16, d, 5);
  expect_identical(a, b);
  auto c = run_synthetic("migratory", 16, d, 6);
  EXPECT_TRUE(a.events != c.events || a.messages() != c.messages());
}

TEST(Des, ParallelLanesDeterministicAndComplete) {
  DesOptions one;
  one.lanes = 1;
  DesOptions two;
  two.lanes = 2;
  DesOptions four;
  four.lanes = 4;
  auto s1 = run_synthetic("migratory", 24, one, 9, 8);
  auto s2 = run_synthetic("migratory", 24, two, 9, 8);
  auto s2b = run_synthetic("migratory", 24, two, 9, 8);
  auto s4 = run_synthetic("migratory", 24, four, 9, 8);
  ASSERT_TRUE(s1.finished) << s1.stall.to_string();
  ASSERT_TRUE(s2.finished) << s2.stall.to_string();
  ASSERT_TRUE(s4.finished) << s4.stall.to_string();
  // Lanes partition addresses; every config completes the same workload.
  EXPECT_EQ(s1.ops_total, s2.ops_total);
  EXPECT_EQ(s1.ops_total, s4.ops_total);
  // Same lane count => bit-identical run.
  expect_identical(s2, s2b);
}

// ---- slot revolving door ----------------------------------------------------

TEST(Des, ManyMoreNodesThanSlotsShareOneLock) {
  // 200 clients on one lock address: far beyond the 64 protocol slots, the
  // revolving door must rebind released slots to parked clients.
  Options opts;
  opts.channel_capacity = 8;
  auto p = protocols::make_lock_server();
  auto rp = refine::refine(p, opts);
  SyntheticConfig cfg;
  cfg.nodes = 200;
  cfg.ops_per_node = 2;
  cfg.addresses = 1;
  cfg.think_mean = 3;
  cfg.arrival_window = 500;
  SyntheticSource src(p, cfg);
  auto stats = des_simulate(rp, src);
  ASSERT_TRUE(stats.finished) << stats.stall.to_string();
  EXPECT_EQ(stats.ops_total, 200u * 2u * 2u);
  EXPECT_EQ(stats.instances, 1u);
  EXPECT_GT(stats.fairness_index(), 0.99);
}

// ---- write buffer -----------------------------------------------------------

TEST(Des, WriteBufferAbsorbsStores) {
  DesOptions off;
  DesOptions on;
  on.write_buffer = true;
  auto a = run_synthetic("invalidate", 8, off, 21);
  auto b = run_synthetic("invalidate", 8, on, 21);
  ASSERT_TRUE(a.finished) << a.stall.to_string();
  ASSERT_TRUE(b.finished) << b.stall.to_string();
  EXPECT_EQ(a.ops_total, b.ops_total);
  EXPECT_EQ(a.wbuf_hits, 0u);
  EXPECT_GT(b.wbuf_hits, 0u);
  // Buffered stores skip the protocol: strictly less wire traffic.
  EXPECT_LT(b.messages(), a.messages());
}

// ---- stall diagnostics ------------------------------------------------------

TEST(Des, WedgeProducesStructuredStall) {
  // An op that gates off every decision can never reach its goal: the run
  // must wedge (no events left) and name the blocked op and node.
  auto p = protocols::make_migratory();
  Options opts;
  opts.channel_capacity = 8;
  auto rp = refine::refine(p, opts);
  Workload w;
  w.vocabulary = {"req", "evict", "write"};
  Op impossible;
  impossible.name = "acquire";
  impossible.decisions = {};  // never allowed to send the request
  impossible.goal = p.remote.find_state("V");
  w.per_remote = {{impossible}};
  WorkloadSource src(w);
  auto stats = des_simulate(rp, src);
  EXPECT_FALSE(stats.finished);
  ASSERT_TRUE(stats.stall.stalled());
  EXPECT_EQ(stats.stall.op, "acquire");
  EXPECT_EQ(stats.stall.remote, 0);
  EXPECT_NE(stats.stall.to_string().find("acquire"), std::string::npos);
}

TEST(Des, EventBudgetStall) {
  DesOptions d;
  d.max_events = 10;
  auto stats = run_synthetic("migratory", 8, d, 3);
  EXPECT_FALSE(stats.finished);
  ASSERT_TRUE(stats.stall.stalled());
  EXPECT_NE(stats.stall.reason.find("event budget"), std::string::npos);
}

TEST(Stall, ToStringFormatsContext) {
  Stall s;
  EXPECT_EQ(s.to_string(), "");
  s.reason = "wedged";
  s.op = "w";
  s.remote = 3;
  s.up_occupancy = 1;
  const std::string out = s.to_string();
  EXPECT_NE(out.find("wedged"), std::string::npos);
  EXPECT_NE(out.find("op=w"), std::string::npos);
  EXPECT_NE(out.find("node=3"), std::string::npos);
}

// ---- fairness edge cases ----------------------------------------------------

TEST(DesStatsTest, FairnessIndexEdgeCases) {
  DesStats s;
  EXPECT_DOUBLE_EQ(s.fairness_index(), 1.0);  // no nodes at all
  s.nodes.resize(4);
  EXPECT_DOUBLE_EQ(s.fairness_index(), 1.0);  // zero ops everywhere
  s.nodes[0].completed = 8;
  EXPECT_DOUBLE_EQ(s.fairness_index(), 0.25);  // one node got everything
  for (auto& n : s.nodes) n.completed = 5;
  EXPECT_DOUBLE_EQ(s.fairness_index(), 1.0);
  s.nodes.resize(1);
  EXPECT_DOUBLE_EQ(s.fairness_index(), 1.0);  // single node
}

// ---- trace end-to-end -------------------------------------------------------

TEST(Des, TraceDrivesSimulation) {
  Trace t;
  std::string err;
  ASSERT_TRUE(parse_trace("0 r 0 0\n"
                          "1 w 0 3\n"
                          "0 rel 0 1\n"
                          "1 rel 0 1\n"
                          "0 w 0x40 2\n"
                          "0 rel 0x40 0\n",
                          t, err))
      << err;
  Options opts;
  opts.channel_capacity = 8;
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p, opts);
  TraceSource src(p, t);
  auto stats = des_simulate(rp, src);
  ASSERT_TRUE(stats.finished) << stats.stall.to_string();
  EXPECT_EQ(stats.ops_total, 6u);
  EXPECT_EQ(stats.instances, 2u);  // addresses 0 and 0x40
  EXPECT_EQ(stats.nodes[0].completed, 4u);
  EXPECT_EQ(stats.nodes[1].completed, 2u);
}

// A node re-reading a block it holds in M must complete instantly off the
// exclusive copy (the read's alt-goal): waiting for S would wedge with
// empty channels, since nobody ever downgrades the sole owner.
TEST(Des, ReadAfterOwnWriteServedByExclusiveCopy) {
  Trace t;
  std::string err;
  ASSERT_TRUE(parse_trace("0 w 0 0\n"
                          "0 r 0 2\n"
                          "0 rel 0 1\n",
                          t, err))
      << err;
  Options opts;
  opts.channel_capacity = 8;
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p, opts);
  TraceSource src(p, t);
  auto stats = des_simulate(rp, src);
  ASSERT_TRUE(stats.finished) << stats.stall.to_string();
  EXPECT_EQ(stats.ops_total, 3u);
}

}  // namespace
}  // namespace ccref::sim

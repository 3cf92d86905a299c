// Tests for the discrete-event simulator: the event core (event queue,
// event pool, histogram), the cost model and trace parser, the paper's
// simulation claims (§3.3 fusion savings, the §5 hand design, §6 buffer
// size against nacks), and exact counts pinned on closed workloads. Every
// in-place step the simulator takes is checked against successors() by
// Shipped/InPlaceWalk in test_runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <sstream>
#include <utility>
#include <vector>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "sim/des.hpp"
#include "sim/des_workload.hpp"
#include "support/event_pool.hpp"
#include "support/event_queue.hpp"
#include "support/rng.hpp"

namespace ccref::sim {
namespace {

using refine::Options;

// ---- event core -------------------------------------------------------------

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
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

TEST(EventQueue, EnqueueBelowLastPopStillPopsFirst) {
  EventQueue q;
  q.push(1000, 1);
  std::uint64_t t = 0;
  std::uint32_t p = 0;
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(t, 1000u);
  // The wheel now starts at 1000; an earlier push goes to the heap and
  // must still come out before the wheel's entries.
  q.push(10, 2);
  q.push(1500, 3);
  q.push(999, 4);
  for (const auto& [want_t, want_p] :
       {std::pair<std::uint64_t, std::uint32_t>{10, 2}, {999, 4}, {1500, 3}}) {
    ASSERT_TRUE(q.pop(t, p));
    EXPECT_EQ(t, want_t);
    EXPECT_EQ(p, want_p);
  }
  EXPECT_FALSE(q.pop(t, p));
}

TEST(EventQueue, TiesBreakByPayload) {
  EventQueue q;
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

TEST(EventQueue, SparseFarFutureJump) {
  EventQueue q;
  q.push(1, 1);
  std::uint64_t t = 0;
  std::uint32_t p = 0;
  ASSERT_TRUE(q.pop(t, p));
  q.push(1u << 30, 2);
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(t, std::uint64_t{1} << 30);
  // The wheel followed the clock to 2^30: a push just past it is a wheel
  // push again and pops in order with the heap's far entry.
  q.push((1u << 30) + 5000, 3);
  q.push((1u << 30) + 7, 4);
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(t, (std::uint64_t{1} << 30) + 7);
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(t, (std::uint64_t{1} << 30) + 5000);
  EXPECT_FALSE(q.pop(t, p));
}

// The wheel covers [cur, cur + 1024) with cur the last pop; 1024 cycles
// ahead and beyond is the heap's. Entries on both sides of that edge, and
// heap entries the moving wheel later covers, must merge in exact order.
TEST(EventQueue, HeapSideAtAndPastWheelEnd) {
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  EventQueue q;
  std::uint64_t t = 0;
  std::uint32_t p = 0;
  q.push(100, 0);
  ASSERT_TRUE(q.pop(t, p));  // the wheel now covers [100, 1124)
  q.push(100 + 1024, 1);     // heap: the first cycle past the wheel
  q.push(100 + 1023, 2);     // wheel: its last slot
  q.push(100 + 1024, 0);
  q.push(100 + 5000, 3);
  q.push(100 + 1, 4);
  q.push(100 + 1023, 1);
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(Entry(t, p), Entry(101, 4));
  // The wheel moved to [101, 1125): 1124 is a wheel time now, while the
  // heap still holds two entries at 1124.
  q.push(101 + 1023, 9);
  for (const Entry& want : {Entry(1123, 1), Entry(1123, 2), Entry(1124, 0),
                            Entry(1124, 1), Entry(1124, 9), Entry(5100, 3)}) {
    ASSERT_TRUE(q.pop(t, p));
    EXPECT_EQ(Entry(t, p), want);
  }
  EXPECT_FALSE(q.pop(t, p));
}

// One slot holds a whole equal-time burst; it drains in payload order,
// and a push into that slot mid-drain joins the order.
TEST(EventQueue, EqualTimeBurstInOneSlot) {
  EventQueue q;
  Rng rng(7);
  std::vector<std::uint32_t> payloads;
  for (int i = 0; i < 300; ++i) {
    payloads.push_back(static_cast<std::uint32_t>(rng.next()));
    q.push(42, payloads.back());
  }
  q.push(43, 0);
  std::sort(payloads.begin(), payloads.end());
  std::uint64_t t = 0;
  std::uint32_t p = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(q.pop(t, p));
    ASSERT_EQ(t, 42u);
    ASSERT_EQ(p, payloads[i]) << "at pop " << i;
    if (i == 100) {
      q.push(42, payloads.back() + 1);  // > every pending payload
      payloads.push_back(payloads.back() + 1);
    }
  }
  ASSERT_TRUE(q.pop(t, p));
  EXPECT_EQ(std::make_pair(t, p), std::make_pair(std::uint64_t{43}, 0u));
  EXPECT_TRUE(q.empty());
}

// The queue must be an exact priority queue on (time, payload), or the
// simulator's event order (and every count it reports) would depend on
// whether an entry sat on the wheel or in the heap. Drive it and a
// reference heap through the same random traffic: pushes ahead of the
// clock on both sides of the wheel's end and below the last pop,
// equal-time bursts in one slot, far-future gaps, and fill/drain phases.
TEST(EventQueue, MatchesReferenceHeapUnderRandomTraffic) {
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  EventQueue q;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ref;
  Rng rng(2024);
  std::uint64_t now = 0;  // time of the last pop
  bool filling = true;
  for (int op = 0; op < 120000; ++op) {
    if (op % 6000 == 0) filling = !filling;
    if (ref.empty() || rng.below(100) < (filling ? 60u : 20u)) {
      const std::uint64_t kind = rng.below(1000);
      auto payload = [&] { return static_cast<std::uint32_t>(rng.next()); };
      if (kind < 5) {  // a burst of entries at one time
        const std::uint64_t t = now + rng.below(64);
        const std::uint64_t n = 64 + rng.below(64);
        for (std::uint64_t k = 0; k < n; ++k) {
          const std::uint32_t pl = payload();
          q.push(t, pl);
          ref.emplace(t, pl);
        }
      } else {
        std::uint64_t t = now + rng.below(kind < 800 ? 256 : 4096);
        if (kind >= 900) t = now - std::min(now, rng.below(512));  // below
        if (kind >= 990 && q.size() < 8)  // a far-future gap
          t = now + (1ull << 24) + rng.below(1ull << 20);
        const std::uint32_t pl = payload();
        q.push(t, pl);
        ref.emplace(t, pl);
      }
    } else {
      std::uint64_t t = 0;
      std::uint32_t p = 0;
      ASSERT_TRUE(q.pop(t, p)) << "op " << op;
      ASSERT_EQ(Entry(t, p), ref.top()) << "op " << op;
      ref.pop();
      now = t;
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  std::uint64_t t = 0;
  std::uint32_t p = 0;
  while (!ref.empty()) {
    ASSERT_TRUE(q.pop(t, p));
    ASSERT_EQ(Entry(t, p), ref.top());
    ref.pop();
  }
  EXPECT_FALSE(q.pop(t, p));
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

// ---- paper claims on one block ------------------------------------------

// Closed loop on one block under the uniform cost model (one cycle per
// hop, no home occupancy): the paper's §2.2 network with order but no
// timing. With no think time every node contends for the line back to
// back, the setting of the §5/§6 message counts.
DesStats run_one_block(const ir::Protocol& p, const std::string& kind,
                       std::uint32_t nodes, std::uint32_t pairs,
                       Options opts = {}, double write_fraction = 0.0,
                       std::uint64_t seed = 7, std::uint64_t think = 0) {
  opts.channel_capacity = 8;
  auto rp = refine::refine(p, opts);
  SyntheticConfig cfg;
  cfg.kind = kind;
  cfg.nodes = nodes;
  cfg.ops_per_node = pairs;
  cfg.addresses = 1;
  cfg.write_fraction = write_fraction;
  cfg.think_mean = think;
  cfg.seed = seed;
  SyntheticSource src(p, cfg);
  DesOptions dopts;
  dopts.cost = *CostModel::preset("uniform");
  return des_simulate(rp, src, dopts);
}

DesStats run_migratory(std::uint32_t n, std::uint32_t pairs,
                       Options opts = {}) {
  return run_one_block(protocols::make_migratory(), "migratory", n, pairs,
                       opts);
}

DesStats run_invalidate(std::uint32_t n, std::uint32_t pairs,
                        double write_fraction, std::uint64_t seed) {
  return run_one_block(protocols::make_invalidate(), "invalidate", n, pairs,
                       {}, write_fraction, seed);
}

TEST(Sim, MigratorySingleRemoteCompletes) {
  auto stats = run_migratory(1, 10);
  EXPECT_TRUE(stats.finished) << stats.stall;
  EXPECT_EQ(stats.ops_total, 20u);  // 10 acquires + 10 releases
  EXPECT_EQ(stats.nodes[0].completed, 20u);
}

TEST(Sim, MigratoryManyRemotesComplete) {
  auto stats = run_migratory(6, 5);
  EXPECT_TRUE(stats.finished) << stats.stall;
  EXPECT_EQ(stats.ops_total, 60u);
}

TEST(Sim, DeterministicForSeed) {
  auto a = run_invalidate(4, 5, 0.5, 99);
  auto b = run_invalidate(4, 5, 0.5, 99);
  expect_identical(a, b);
  auto c = run_invalidate(4, 5, 0.5, 100);
  // Another seed draws another read/write mix.
  EXPECT_TRUE(a.events != c.events || a.messages() != c.messages());
}

TEST(Sim, SingleRemoteMessageCountsAreExact) {
  // One remote, no contention: each acquire is the fused req/gr pair
  // (2 messages), each release is LR + ack (2 messages). No nacks.
  auto stats = run_migratory(1, 10);
  EXPECT_EQ(stats.req, 20u);   // 10 req + 10 LR
  EXPECT_EQ(stats.repl, 10u);  // 10 gr
  EXPECT_EQ(stats.ack, 10u);   // 10 LR acks
  EXPECT_EQ(stats.nack, 0u);
  EXPECT_DOUBLE_EQ(stats.msgs_per_op(), 2.0);
}

TEST(Sim, FusionSavesMessages) {
  Options plain;
  plain.request_reply_fusion = false;
  // Uncontended: the generic scheme pays request + ack for req, gr and LR.
  auto fused1 = run_migratory(1, 10);
  auto plain1 = run_migratory(1, 10, plain);
  EXPECT_DOUBLE_EQ(fused1.msgs_per_op(), 2.0);
  EXPECT_DOUBLE_EQ(plain1.msgs_per_op(), 3.0);
  // Under contention the generic scheme still sends more.
  auto with = run_migratory(4, 10);
  auto without = run_migratory(4, 10, plain);
  ASSERT_TRUE(with.finished) << with.stall;
  ASSERT_TRUE(without.finished) << without.stall;
  EXPECT_LT(with.msgs_per_op(), without.msgs_per_op());
  EXPECT_GT(without.ack, with.ack);
}

TEST(Sim, HandDesignSavesTheLRAck) {
  Options hand;
  hand.elide_ack = {"LR"};
  auto a = run_migratory(1, 20);
  auto b = run_migratory(1, 20, hand);
  ASSERT_TRUE(a.finished) << a.stall;
  ASSERT_TRUE(b.finished) << b.stall;
  // Exactly one ack per release disappears; the paper: "the loss of
  // efficiency due to the extra ack is small".
  EXPECT_EQ(a.ack - b.ack, 20u);
  EXPECT_EQ(a.req, b.req);
  EXPECT_EQ(a.repl, b.repl);
  EXPECT_DOUBLE_EQ(b.msgs_per_op(), 1.5);
}

TEST(Sim, ContentionCausesNacksWithMinimalBuffer) {
  // k=2 with 8 contending remotes must produce nacks (requests bounce), and
  // weak progress still finishes every op (§2.5).
  auto stats = run_migratory(8, 40);
  ASSERT_TRUE(stats.finished) << stats.stall;
  EXPECT_EQ(stats.ops_total, 640u);
  EXPECT_GT(stats.nack, 0u);
}

TEST(Sim, LargerBufferReducesNacks) {
  // §6: with a home buffer of n the home never nacks.
  auto small = run_migratory(8, 40);
  ASSERT_TRUE(small.finished) << small.stall;
  std::uint64_t prev = small.nack;
  for (int k : {4, 8, 9}) {
    Options big;
    big.home_buffer_capacity = k;
    auto b = run_migratory(8, 40, big);
    ASSERT_TRUE(b.finished) << "k=" << k << ": " << b.stall;
    EXPECT_LE(b.nack, prev) << "k=" << k;
    if (k >= 8) {
      EXPECT_EQ(b.nack, 0u) << "k=" << k;
    }
    prev = b.nack;
  }
  EXPECT_GT(small.nack, prev);
}

TEST(Sim, FairnessIndexReasonableUnderContention) {
  auto stats = run_migratory(6, 10);
  ASSERT_TRUE(stats.finished) << stats.stall;
  // Every remote completes its fixed workload, so the index is exactly 1;
  // the interesting spread shows up in latency instead.
  EXPECT_DOUBLE_EQ(stats.fairness_index(), 1.0);
  EXPECT_GT(stats.latency.max(), stats.latency.percentile(0.5));
}

TEST(Sim, InvalidateWorkloadCompletes) {
  auto stats = run_invalidate(4, 10, 0.3, 42);
  EXPECT_TRUE(stats.finished) << stats.stall;
  EXPECT_EQ(stats.ops_total, 80u);
  EXPECT_GT(stats.completions, 0u);
}

TEST(Sim, InvalidateReadsShareWritesExclude) {
  // All-read workload completes with strictly fewer messages than all-write
  // (no invalidation sweeps needed).
  auto reads = run_invalidate(4, 10, 0.0, 42);
  auto writes = run_invalidate(4, 10, 1.0, 42);
  ASSERT_TRUE(reads.finished) << reads.stall;
  ASSERT_TRUE(writes.finished) << writes.stall;
  EXPECT_LT(reads.messages(), writes.messages());
}

TEST(Sim, WorkloadGeneratorShapes) {
  // Every access is followed by its release, and a node's stream ends
  // after `ops_per_node` pairs.
  auto p = protocols::make_migratory();
  SyntheticConfig cfg;
  cfg.kind = "migratory";
  cfg.nodes = 3;
  cfg.ops_per_node = 4;
  SyntheticSource src(p, cfg);
  for (std::uint32_t node = 0; node < 3; ++node) {
    DesOp op;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(src.next(node, op)) << node << "/" << i;
      EXPECT_EQ(std::string(op.name) == "rel", i % 2 == 1) << op.name;
    }
    EXPECT_FALSE(src.next(node, op));
  }

  auto iv = protocols::make_invalidate();
  cfg.kind = "invalidate";
  cfg.nodes = 2;
  cfg.ops_per_node = 50;
  cfg.write_fraction = 0.5;
  SyntheticSource isrc(iv, cfg);
  int writes = 0;
  DesOp op;
  while (isrc.next(0, op))
    if (op.write) ++writes;
  EXPECT_GT(writes, 10);
  EXPECT_LT(writes, 40);
}

TEST(Sim, StallReportedWhenWorkloadImpossible) {
  // An op whose goal can never be reached (D1 needs an invalidation, but
  // there is no second remote) must stall and say so.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  Workload w;
  w.vocabulary = {"req", "evict"};
  w.per_remote = {{{"impossible", {"req"}, p.remote.find_state("D1")}}};
  WorkloadSource src(w);
  DesOptions dopts;
  dopts.max_events = 1000;
  auto stats = des_simulate(rp, src, dopts);
  EXPECT_FALSE(stats.finished);
  ASSERT_TRUE(stats.stall.stalled());
  // The structured diagnostics name the wedged op and where it sits.
  EXPECT_EQ(stats.stall.op, "impossible");
  EXPECT_EQ(stats.stall.remote, 0);
  EXPECT_NE(stats.stall.to_string().find("impossible"), std::string::npos);
}

TEST(Sim, ObligatoryActionsAreNeverGated) {
  // A remote whose workload is exhausted must still answer invalidations:
  // r0 acquires then goes quiet holding the line; r1's acquire triggers an
  // inv that r0 must answer despite having no ops left.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  const ir::StateId goal_v = p.remote.find_state("V");
  Workload w;
  w.vocabulary = {"req", "evict"};
  w.per_remote = {{{"acquire", {"req"}, goal_v}},
                  {{"acquire", {"req"}, goal_v}}};
  WorkloadSource src(w);
  auto stats = des_simulate(rp, src);
  EXPECT_TRUE(stats.finished) << stats.stall;
  EXPECT_EQ(stats.ops_total, 2u);
}

// ---- pinned exact counts ----------------------------------------------------

struct Pin {
  std::uint64_t seed, events, req, ack, nack, repl, completions;
};

// Seeded closed loops on one block with short think times. Counts are
// deterministic for a (workload, seed), so any drift is a change to the
// refined semantics or the scheduler.
void expect_pinned(const DesStats& s, const Pin& pin, std::uint64_t ops) {
  ASSERT_TRUE(s.finished) << pin.seed << ": " << s.stall;
  EXPECT_EQ(s.ops_total, ops) << pin.seed;
  EXPECT_EQ(s.events, pin.events) << pin.seed;
  EXPECT_EQ(s.req, pin.req) << pin.seed;
  EXPECT_EQ(s.ack, pin.ack) << pin.seed;
  EXPECT_EQ(s.nack, pin.nack) << pin.seed;
  EXPECT_EQ(s.repl, pin.repl) << pin.seed;
  EXPECT_EQ(s.completions, pin.completions) << pin.seed;
}

TEST(DesAgreement, MigratorySingleRemoteExactMessages) {
  // One remote, no contention: 10 fused req/gr + 10 LR/ack, whatever the
  // seed draws.
  for (std::uint64_t seed : {7u, 99u})
    expect_pinned(run_one_block(protocols::make_migratory(), "migratory", 1,
                                10, {}, 0.3, seed, 8),
                  {seed, 100, 20, 10, 0, 10, 30}, 20);
}

TEST(DesAgreement, MigratoryManyRemotesSameOpsAndVerdict) {
  for (const Pin& pin : {Pin{7, 386, 98, 8, 32, 52, 90},
                         Pin{99, 367, 91, 11, 24, 49, 90},
                         Pin{12345, 397, 102, 6, 37, 54, 90}})
    expect_pinned(run_one_block(protocols::make_migratory(), "migratory", 6,
                                5, {}, 0.3, pin.seed, 8),
                  pin, 60);
}

TEST(DesAgreement, InvalidateSingleRemoteExactMessages) {
  for (const Pin& pin :
       {Pin{3, 114, 20, 10, 0, 10, 30}, Pin{11, 115, 20, 10, 0, 10, 30}})
    expect_pinned(run_one_block(protocols::make_invalidate(), "invalidate", 1,
                                10, {}, 0.5, pin.seed, 8),
                  pin, 20);
}

TEST(DesAgreement, InvalidateMultiRemoteVerdicts) {
  for (const Pin& pin : {Pin{3, 297, 58, 30, 3, 24, 78},
                         Pin{11, 312, 64, 27, 7, 24, 75},
                         Pin{77, 310, 61, 32, 5, 24, 80}})
    expect_pinned(run_one_block(protocols::make_invalidate(), "invalidate", 4,
                                6, {}, 0.4, pin.seed, 8),
                  pin, 48);
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

// ---- golden runs ------------------------------------------------------------

// Every counter of a run, the latency percentiles and the per-node
// completions (run-length encoded as value*count), on one line.
std::string golden(const DesStats& s) {
  std::ostringstream os;
  os << "events=" << s.events << " cycles=" << s.cycles << " req=" << s.req
     << " ack=" << s.ack << " nack=" << s.nack << " repl=" << s.repl
     << " rdv=" << s.completions << " ops=" << s.ops_total
     << " retries=" << s.retries << " mem=" << s.memory_accesses
     << " c2c=" << s.c2c_transfers << " wb=" << s.write_backs
     << " busy=" << s.home_busy_cycles << " wbuf=" << s.wbuf_hits << "/"
     << s.wbuf_drains << " inst=" << s.instances << " windows=" << s.windows
     << " p50=" << s.latency.percentile(0.5)
     << " p99=" << s.latency.percentile(0.99) << " max=" << s.latency.max()
     << " finished=" << s.finished << " completed=";
  for (std::size_t i = 0; i < s.nodes.size();) {
    std::size_t j = i;
    while (j < s.nodes.size() && s.nodes[j].completed == s.nodes[i].completed)
      ++j;
    os << (i ? "," : "") << s.nodes[i].completed << "*" << (j - i);
    i = j;
  }
  if (s.stall.stalled()) os << " stall=" << s.stall.to_string();
  return os.str();
}

struct GoldenCase {
  const char* kind;
  std::uint32_t nodes;
  std::uint32_t pairs;
  std::uint64_t addresses;
  const char* cost;
  int lanes;
  int slot_cap;
  bool write_buffer;
  std::uint64_t max_events;
  const char* expect;
};

// Exact runs across the engine's shapes. The event order, and so every
// number here, must not depend on how the loop finds its next slot,
// channel or event: a faster pick must return the same index.
TEST(Des, GoldenRunsAreBitIdentical) {
  const GoldenCase cases[] = {
      // 80 nodes on one address: 64-bit slot and channel masks, and
      // slots rebound through the detach path.
      {"invalidate", 80, 3, 1, "avalanche", 1, 64, false, 0,
       "events=36295 cycles=23547 req=11736 ack=296 nack=11061 "
       "repl=240 rdv=776 ops=480 retries=11061 mem=240 c2c=0 wb=68 "
       "busy=23194 wbuf=0/0 inst=1 windows=0 p50=159 p99=10223 "
       "max=10223 finished=1 completed=6*80"},
      {"lock_server", 100, 2, 1, "uniform", 1, 64, false, 0,
       "events=2000 cycles=1249 req=400 ack=200 nack=0 repl=200 "
       "rdv=600 ops=400 retries=0 mem=0 c2c=0 wb=0 busy=0 wbuf=0/0 "
       "inst=1 windows=0 p50=2 p99=1151 max=1207 finished=1 "
       "completed=4*100"},
      {"migratory", 70, 2, 1, "uniform", 1, 64, false, 0,
       "events=25684 cycles=412 req=8421 ack=34 nack=8108 repl=246 "
       "rdv=420 ops=280 retries=8108 mem=140 c2c=106 wb=34 busy=0 "
       "wbuf=0/0 inst=1 windows=0 p50=7 p99=351 max=367 finished=1 "
       "completed=4*70"},
      // Narrow masks: 12 nodes share 5 slots.
      {"invalidate", 12, 4, 1, "uniform", 1, 5, false, 0,
       "events=818 cycles=134 req=195 ack=60 nack=80 repl=48 "
       "rdv=156 ops=96 retries=80 mem=48 c2c=0 wb=12 busy=0 "
       "wbuf=0/0 inst=1 windows=0 p50=6 p99=26 max=26 finished=1 "
       "completed=8*12"},
      {"migratory", 12, 4, 1, "avalanche", 1, 5, false, 0,
       "events=6796 cycles=6293 req=2217 ack=10 nack=2112 repl=86 "
       "rdv=144 ops=96 retries=2112 mem=48 c2c=38 wb=10 busy=4416 "
       "wbuf=0/0 inst=1 windows=0 p50=31 p99=4286 max=4286 "
       "finished=1 completed=8*12"},
      // Four lanes, and a wide address on them.
      {"migratory", 24, 4, 8, "avalanche", 4, 64, false, 0,
       "events=3914 cycles=3529 req=1198 ack=42 nack=996 repl=150 "
       "rdv=288 ops=192 retries=996 mem=96 c2c=54 wb=42 busy=2376 "
       "wbuf=0/0 inst=8 windows=4 p50=51 p99=895 max=1014 "
       "finished=1 completed=8*24"},
      {"invalidate", 90, 2, 3, "uniform", 4, 64, false, 0,
       "events=9057 cycles=1090 req=2730 ack=226 nack=2285 "
       "repl=180 rdv=586 ops=360 retries=2285 mem=180 c2c=0 wb=56 "
       "busy=0 wbuf=0/0 inst=3 windows=2 p50=3 p99=95 max=111 "
       "finished=1 completed=4*90"},
      // The write buffer, on one lane and four.
      {"invalidate", 16, 20, 2, "avalanche", 1, 64, true, 0,
       "events=2826 cycles=2418 req=566 ack=227 nack=112 repl=226 "
       "rdv=679 ops=640 retries=112 mem=226 c2c=0 wb=1 busy=1130 "
       "wbuf=94/2 inst=2 windows=0 p50=8 p99=287 max=372 "
       "finished=1 completed=40*16"},
      {"invalidate", 70, 3, 4, "uniform", 4, 64, true, 0,
       "events=1595 cycles=2060 req=290 ack=145 nack=0 repl=145 "
       "rdv=435 ops=420 retries=0 mem=145 c2c=0 wb=0 busy=0 "
       "wbuf=65/0 inst=4 windows=3 p50=2 p99=2 max=2 finished=1 "
       "completed=6*70"},
      // An event-budget stall mid-run.
      {"invalidate", 80, 3, 1, "avalanche", 1, 64, false, 2000,
       "events=2000 cycles=1194 req=666 ack=16 nack=565 repl=14 "
       "rdv=45 ops=27 retries=562 mem=14 c2c=0 wb=4 busy=1192 "
       "wbuf=0/0 inst=1 windows=0 p50=119 p99=1136 max=1136 "
       "finished=0 "
       "completed=0*2,2*1,0*18,2*1,0*2,2*1,0*5,2*2,0*4,2*1,0*10,"
       "2*1,0*1,2*1,0*1,2*1,0*2,2*3,0*9,2*1,0*1,1*1,0*11 "
       "stall=event budget exhausted [op=r node=0 up=1 down=0 "
       "hbuf=0]"},
  };
  for (const GoldenCase& c : cases) {
    Options opts;
    opts.channel_capacity = 8;
    const std::string kind = c.kind;
    const auto p = kind == "lock_server"
                       ? protocols::make_lock_server()
                       : (kind == "invalidate" ? protocols::make_invalidate()
                                               : protocols::make_migratory());
    const auto rp = refine::refine(p, opts);
    SyntheticConfig cfg;
    cfg.kind = kind;
    cfg.nodes = c.nodes;
    cfg.ops_per_node = c.pairs;
    cfg.addresses = c.addresses;
    cfg.think_mean = 8;
    cfg.seed = 42;
    SyntheticSource src(p, cfg);
    DesOptions d;
    d.cost = *CostModel::preset(c.cost);
    d.lanes = c.lanes;
    d.slot_cap = c.slot_cap;
    d.write_buffer = c.write_buffer;
    d.max_events = c.max_events;
    EXPECT_EQ(golden(des_simulate(rp, src, d)), c.expect)
        << kind << " nodes=" << c.nodes << " lanes=" << c.lanes
        << " slot_cap=" << c.slot_cap;
  }
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

// Focused tests for verify/: BFS trace reconstruction, status precedence,
// memory accounting, and the describe() output both semantics provide for
// counterexamples.
#include <gtest/gtest.h>

#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"
#include "verify/progress.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using sem::RendezvousSystem;
using sem::RvState;

TEST(Trace, ShortestPathToViolation) {
  // BFS guarantees the counterexample is minimal: reaching V from scratch
  // takes exactly req-rendezvous + gr-rendezvous = 2 steps.
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 2);
  verify::CheckOptions<RendezvousSystem> opts;
  ir::StateId rV = p.remote.find_state("V");
  opts.invariant = [rV](const RvState& s) {
    for (const auto& r : s.remotes)
      if (r.state == rV) return "someone reached V";
    return "";
  };
  auto result = verify::explore(sys, opts);
  ASSERT_EQ(result.status, verify::Status::InvariantViolated);
  // initial + 2 steps.
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_NE(result.trace[0].find("initial"), std::string::npos);
  EXPECT_NE(result.trace[1].find("!req"), std::string::npos);
  EXPECT_NE(result.trace[2].find("!gr"), std::string::npos);
  // Each step carries the full state description.
  EXPECT_NE(result.trace[2].find("h=E"), std::string::npos);
}

TEST(Trace, AsyncTraceLabelsAreTableRows) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 1);
  verify::CheckOptions<AsyncSystem> opts;
  ir::StateId rV = p.remote.find_state("V");
  opts.invariant = [rV](const runtime::AsyncState& s) {
    return s.remotes[0].state == rV && !s.remotes[0].transient
               ? "reached V"
               : "";
  };
  auto result = verify::explore(sys, opts);
  ASSERT_EQ(result.status, verify::Status::InvariantViolated);
  // request -> buffer -> consume -> repl -> deliver: 5 steps + initial.
  ASSERT_EQ(result.trace.size(), 6u);
  EXPECT_NE(result.trace[1].find("r0 C1: request req"), std::string::npos);
  EXPECT_NE(result.trace[3].find("h C1: consume req"), std::string::npos);
  EXPECT_NE(result.trace[4].find("h C2: repl gr"), std::string::npos);
  EXPECT_NE(result.trace[5].find("r0 T1: repl gr"), std::string::npos);
}

TEST(Trace, DisabledWhenNotWanted) {
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 2);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.want_trace = false;
  opts.invariant = [&](const RvState& s) {
    return s.home.state == p.home.find_state("E") ? "E" : "";
  };
  auto result = verify::explore(sys, opts);
  EXPECT_EQ(result.status, verify::Status::InvariantViolated);
  EXPECT_TRUE(result.trace.empty());
}

TEST(Checker, InvariantCheckedOnInitialState) {
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 1);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.invariant = [](const RvState&) { return "always broken"; };
  auto result = verify::explore(sys, opts);
  EXPECT_EQ(result.status, verify::Status::InvariantViolated);
  EXPECT_EQ(result.states, 1u);
  ASSERT_EQ(result.trace.size(), 1u);
}

TEST(Checker, TransitionsCountedOnce) {
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 2);
  auto result = verify::explore(sys);
  ASSERT_EQ(result.status, verify::Status::Ok);
  // Recount by hand.
  std::size_t edges = 0;
  verify::CollapsedStateSet seen(64u << 20);
  ByteSink sink;
  sys.encode(sys.initial(), sink);
  (void)seen.insert(sink.bytes());
  for (std::uint32_t cur = 0; cur < seen.size(); ++cur) {
    ByteSource src(seen.at(cur));
    for (auto& [succ, label] : sys.successors(sys.decode(src))) {
      ++edges;
      ByteSink s2;
      sys.encode(succ, s2);
      (void)seen.insert(s2.bytes());
    }
  }
  EXPECT_EQ(result.transitions, edges);
  EXPECT_EQ(result.states, seen.size());
}

TEST(Checker, MemoryReportedWithinLimit) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  verify::CheckOptions<AsyncSystem> opts;
  opts.memory_limit = 1u << 20;
  opts.want_trace = false;
  auto result = verify::explore(AsyncSystem(rp, 4), opts);
  EXPECT_EQ(result.status, verify::Status::Unfinished);
  EXPECT_LE(result.memory_bytes, 1u << 20);
  EXPECT_GT(result.states, 0u);
}

TEST(Checker, TracedRunChargesItsParents) {
  // A traced run keeps every state's BFS parent inside its visited set and
  // its budget: at least 4 B per state more than the untraced run of the
  // same search, which keeps none.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  struct Tier {
    const char* name;
    verify::CompressionMode compress;
    bool hash_compact;
  };
  for (const Tier& tier :
       {Tier{"full", verify::CompressionMode::Off, false},
        Tier{"collapse", verify::CompressionMode::Collapse, false},
        Tier{"hash-compact", verify::CompressionMode::Off, true}}) {
    verify::CheckOptions<AsyncSystem> opts;
    opts.memory_limit = 16u << 20;
    opts.compress = tier.compress;
    opts.hash_compact = tier.hash_compact;
    opts.want_trace = false;
    const auto untraced = verify::explore(sys, opts);
    opts.want_trace = true;
    const auto traced = verify::explore(sys, opts);
    ASSERT_EQ(untraced.status, verify::Status::Ok) << tier.name;
    ASSERT_EQ(traced.status, verify::Status::Ok) << tier.name;
    ASSERT_EQ(traced.states, untraced.states) << tier.name;
    EXPECT_GE(traced.memory_bytes, untraced.memory_bytes + 4 * traced.states)
        << tier.name;
    EXPECT_LE(traced.memory_bytes, opts.memory_limit) << tier.name;
  }
}

TEST(Progress, CountsCompletingEdges) {
  auto p = protocols::make_migratory();
  auto r = verify::check_progress(RendezvousSystem(p, 2));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_GT(r.completing_edges, 0u);
  EXPECT_GT(r.transitions, r.completing_edges)
      << "τ moves do not complete rendezvous";
}

TEST(Describe, AsyncStateMentionsEverything) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  auto s = sys.initial();
  s.home.transient = true;
  s.home.t_guard = 0;
  s.home.t_target = 1;
  runtime::Msg m;
  m.meta = runtime::Meta::Req;
  m.msg = p.find_message("req");
  m.src = 0;
  s.home.buffer.push_back(m);
  s.up[0].push(runtime::Msg{runtime::Meta::Ack, 0, 0, {}});
  std::string d = sys.describe(s);
  EXPECT_NE(d.find("h=F*"), std::string::npos) << d;       // transient marker
  EXPECT_NE(d.find("->r1"), std::string::npos) << d;       // pending target
  EXPECT_NE(d.find("REQ.req<r0"), std::string::npos) << d; // buffered request
  EXPECT_NE(d.find("up0:"), std::string::npos) << d;       // channel content
  EXPECT_NE(d.find("ACK"), std::string::npos) << d;
}

TEST(Describe, RoundTripAfterMutation) {
  // decode(encode(s)) == s for hand-mutated states, not just reachable ones.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  auto s = sys.initial();
  s.remotes[2].state = p.remote.find_state("V");
  s.remotes[2].store.set(p.remote.find_var("d"), 0);
  s.remotes[1].transient = true;
  s.down[2].push(runtime::Msg{runtime::Meta::Nack, 0, runtime::Msg::kHomeSrc,
                              {}});
  ByteSink sink;
  sys.encode(s, sink);
  ByteSource src(sink.bytes());
  EXPECT_EQ(sys.decode(src), s);
}

}  // namespace
}  // namespace ccref

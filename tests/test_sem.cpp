// Tests for the rendezvous (synchronous) semantics: transition enumeration,
// payload transfer, binders, encode/decode, and full exploration of the
// paper's protocols with their safety invariants.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/validate.hpp"
#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"

namespace ccref {
namespace {

using ir::ProtocolBuilder;
using ir::Type;
using ir::VarId;
using ir::ex::lit;
using ir::ex::var;
using sem::RendezvousSystem;
using sem::RvState;

/// Handshake: remote asks, home answers with a counter value.
ir::Protocol counter_protocol(std::uint32_t bound = 4) {
  ProtocolBuilder b("counter");
  ir::MsgId ASK = b.msg("ask");
  ir::MsgId ANS = b.msg("ans", {Type::Int});

  auto& h = b.home();
  VarId j = h.var("j", Type::Node);
  VarId c = h.var("c", Type::Int, 0, bound);
  h.comm("IDLE").initial();
  h.comm("REPLY");
  h.input("IDLE", ASK).from_any(j).go("REPLY");
  h.output("REPLY", ANS)
      .to(var(j))
      .pay({var(c)})
      .act(ir::st::assign(c, ir::ex::add(var(c), lit(1))))
      .go("IDLE");

  auto& r = b.remote();
  VarId got = r.var("got", Type::Int, 0, bound);
  r.internal("Z");
  r.comm("ASK");
  r.comm("WAIT");
  r.tau("Z", "go").go("ASK");
  r.output("ASK", ASK).go("WAIT");
  r.input("WAIT", ANS).bind({got}).go("Z");
  return b.build();
}

TEST(Rendezvous, InitialStateMatchesDeclarations) {
  auto p = counter_protocol();
  RendezvousSystem sys(p, 3);
  RvState s = sys.initial();
  EXPECT_EQ(s.home.state, p.home.find_state("IDLE"));
  ASSERT_EQ(s.remotes.size(), 3u);
  for (const auto& r : s.remotes)
    EXPECT_EQ(r.state, p.remote.find_state("Z"));
  EXPECT_EQ(s.home.store.get(p.home.find_var("c")), 0u);
}

TEST(Rendezvous, TauMovesEnumerated) {
  auto p = counter_protocol();
  RendezvousSystem sys(p, 2);
  auto succs = sys.successors(sys.initial());
  // Only the two remotes' τ "go" moves are enabled initially.
  ASSERT_EQ(succs.size(), 2u);
  for (const auto& [next, label] : succs) {
    EXPECT_FALSE(label.completes_rendezvous);
    EXPECT_NE(label.text.find("tau go"), std::string::npos);
  }
}

TEST(Rendezvous, RendezvousTransfersPayloadAndBindsSender) {
  auto p = counter_protocol();
  RendezvousSystem sys(p, 2);
  RvState s = sys.initial();
  // Move r1 to ASK.
  s.remotes[1].state = p.remote.find_state("ASK");
  auto succs = sys.successors(s);
  // r0 tau + the ask rendezvous.
  bool found = false;
  for (const auto& [next, label] : succs) {
    if (!label.completes_rendezvous) continue;
    found = true;
    EXPECT_NE(label.text.find("r1!ask"), std::string::npos);
    EXPECT_EQ(next.home.state, p.home.find_state("REPLY"));
    EXPECT_EQ(next.home.store.get(p.home.find_var("j")), 1u);
    EXPECT_EQ(next.remotes[1].state, p.remote.find_state("WAIT"));
  }
  EXPECT_TRUE(found);
}

TEST(Rendezvous, ReplyCarriesValueAndRunsAction) {
  auto p = counter_protocol();
  RendezvousSystem sys(p, 2);
  RvState s = sys.initial();
  VarId j = p.home.find_var("j");
  VarId c = p.home.find_var("c");
  s.home.state = p.home.find_state("REPLY");
  s.home.store.set(j, 0);
  s.home.store.set(c, 2);
  s.remotes[0].state = p.remote.find_state("WAIT");
  auto succs = sys.successors(s);
  bool found = false;
  for (const auto& [next, label] : succs) {
    if (!label.completes_rendezvous) continue;
    found = true;
    EXPECT_NE(label.text.find("h!ans"), std::string::npos);
    EXPECT_EQ(next.remotes[0].store.get(p.remote.find_var("got")), 2u);
    EXPECT_EQ(next.home.store.get(c), 3u) << "home action must run";
    EXPECT_EQ(next.remotes[0].state, p.remote.find_state("Z"));
  }
  EXPECT_TRUE(found);
}

TEST(Rendezvous, EncodeDecodeRoundTrip) {
  auto p = counter_protocol();
  RendezvousSystem sys(p, 3);
  RvState s = sys.initial();
  s.home.store.set(p.home.find_var("c"), 3);
  s.remotes[2].state = p.remote.find_state("WAIT");
  ByteSink sink;
  sys.encode(s, sink);
  ByteSource src(sink.bytes());
  RvState back = sys.decode(src);
  EXPECT_TRUE(src.exhausted());
  EXPECT_EQ(s, back);
}

TEST(Rendezvous, DescribeNamesStatesAndVars) {
  auto p = counter_protocol();
  RendezvousSystem sys(p, 1);
  std::string d = sys.describe(sys.initial());
  EXPECT_NE(d.find("h=IDLE"), std::string::npos);
  EXPECT_NE(d.find("r0=Z"), std::string::npos);
  EXPECT_NE(d.find("c=0"), std::string::npos);
}

// ---- full exploration of the paper's protocols ------------------------------

TEST(Explore, CounterProtocolIsCleanAndFinite) {
  auto p = counter_protocol();
  RendezvousSystem sys(p, 2);
  auto result = verify::explore(sys);
  EXPECT_EQ(result.status, verify::Status::Ok);
  EXPECT_GT(result.states, 10u);
  EXPECT_LT(result.states, 2000u);
}

TEST(Explore, MigratoryValidates) {
  auto p = protocols::make_migratory();
  auto diags = ir::validate(p);
  EXPECT_FALSE(ir::has_errors(diags)) << ir::to_string(diags);
}

TEST(Explore, InvalidateValidates) {
  auto p = protocols::make_invalidate();
  auto diags = ir::validate(p);
  EXPECT_FALSE(ir::has_errors(diags)) << ir::to_string(diags);
}

class MigratoryExplore : public testing::TestWithParam<int> {};

TEST_P(MigratoryExplore, SafeAndDeadlockFree) {
  const int n = GetParam();
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, n);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.invariant = protocols::migratory_invariant(p, n);
  auto result = verify::explore(sys, opts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << result.violation << "\n"
      << (result.trace.empty() ? "" : result.trace.back());
  EXPECT_GT(result.states, 0u);
}

INSTANTIATE_TEST_SUITE_P(N, MigratoryExplore, testing::Values(1, 2, 3, 4));

class InvalidateExplore : public testing::TestWithParam<int> {};

TEST_P(InvalidateExplore, SafeAndDeadlockFree) {
  const int n = GetParam();
  auto p = protocols::make_invalidate();
  RendezvousSystem sys(p, n);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.invariant = protocols::invalidate_invariant(p, n);
  auto result = verify::explore(sys, opts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << result.violation << "\n"
      << (result.trace.empty() ? "" : result.trace.back());
}

INSTANTIATE_TEST_SUITE_P(N, InvalidateExplore, testing::Values(1, 2, 3));

TEST(Explore, MigratoryWithDataDomainStillSafe) {
  auto p = protocols::make_migratory({.data_domain = 2});
  RendezvousSystem sys(p, 2);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.invariant = protocols::migratory_invariant(p, 2);
  auto result = verify::explore(sys, opts);
  EXPECT_EQ(result.status, verify::Status::Ok) << result.violation;
}

TEST(Explore, StateCountsGrowWithN) {
  auto p = protocols::make_migratory();
  std::size_t prev = 0;
  for (int n = 1; n <= 3; ++n) {
    auto result = verify::explore(RendezvousSystem(p, n));
    EXPECT_EQ(result.status, verify::Status::Ok);
    EXPECT_GT(result.states, prev);
    prev = result.states;
  }
}

TEST(Explore, RendezvousMigratoryStaysTiny) {
  // The headline of Table 3: the rendezvous migratory protocol at N=2 is
  // tens of states, not tens of thousands.
  auto p = protocols::make_migratory();
  auto result = verify::explore(RendezvousSystem(p, 2));
  EXPECT_EQ(result.status, verify::Status::Ok);
  EXPECT_LT(result.states, 500u);
}

// ---- checker behaviour ------------------------------------------------------

TEST(Checker, DetectsInjectedInvariantViolation) {
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 2);
  verify::CheckOptions<RendezvousSystem> opts;
  // Claim the home may never reach E — exploration must disprove it.
  ir::StateId hE = p.home.find_state("E");
  opts.invariant = [hE](const RvState& s) {
    return s.home.state == hE ? "home reached E" : "";
  };
  auto result = verify::explore(sys, opts);
  EXPECT_EQ(result.status, verify::Status::InvariantViolated);
  EXPECT_EQ(result.violation, "home reached E");
  // BFS trace: initial + shortest path (rw τ, then the fused req/gr pair
  // as two rendezvous steps).
  ASSERT_FALSE(result.trace.empty());
  EXPECT_NE(result.trace.front().find("initial"), std::string::npos);
  EXPECT_GE(result.trace.size(), 3u);
}

TEST(Checker, DeadlockDetected) {
  // Home that accepts one message and then offers nothing.
  ProtocolBuilder b("dead");
  ir::MsgId M = b.msg("m");
  auto& h = b.home();
  h.var("j", Type::Node);
  h.comm("A").initial();
  h.comm("STUCK");
  h.input("A", M).from_any().go("STUCK");
  h.input("STUCK", M).from_any().when(ir::ex::boolean(false)).go("STUCK");
  auto& r = b.remote();
  r.comm("S");
  r.comm("DONE");
  r.output("S", M).to_home().go("DONE");
  r.input("DONE", M).from_home().go("DONE");
  auto p = b.build();
  auto result = verify::explore(RendezvousSystem(p, 1));
  EXPECT_EQ(result.status, verify::Status::Deadlock);
  EXPECT_NE(result.violation.find("deadlock"), std::string::npos);
}

TEST(Checker, MemoryLimitYieldsUnfinished) {
  auto p = protocols::make_invalidate();
  RendezvousSystem sys(p, 3);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.memory_limit = 16 << 10;  // 16 KB — absurdly small on purpose
  auto result = verify::explore(sys, opts);
  EXPECT_EQ(result.status, verify::Status::Unfinished);
  EXPECT_LE(result.memory_bytes, opts.memory_limit);
}

TEST(Checker, EdgeCheckRuns) {
  auto p = counter_protocol();
  RendezvousSystem sys(p, 1);
  verify::CheckOptions<RendezvousSystem> opts;
  int edges = 0;
  opts.edge_check = [&](const RvState&, const RvState&, const sem::Label&) {
    ++edges;
    return std::string{};
  };
  auto result = verify::explore(sys, opts);
  EXPECT_EQ(result.status, verify::Status::Ok);
  EXPECT_EQ(static_cast<std::size_t>(edges), result.transitions);
}

// ---- state set (the sequential engine's visited set) ------------------------

TEST(StateSet, InsertAndDedup) {
  verify::CollapsedStateSet set(1 << 20);
  std::vector<std::byte> a{std::byte{1}, std::byte{2}};
  std::vector<std::byte> b{std::byte{1}, std::byte{3}};
  auto r1 = set.insert(a);
  EXPECT_EQ(r1.outcome, InsertOutcome::Inserted);
  auto r2 = set.insert(b);
  EXPECT_EQ(r2.outcome, InsertOutcome::Inserted);
  auto r3 = set.insert(a);
  EXPECT_EQ(r3.outcome, InsertOutcome::AlreadyPresent);
  EXPECT_EQ(r3.index, r1.index);
  EXPECT_EQ(set.size(), 2u);
}

TEST(StateSet, AtReturnsStoredBytes) {
  verify::CollapsedStateSet set(1 << 20);
  std::vector<std::byte> a{std::byte{9}, std::byte{8}, std::byte{7}};
  auto r = set.insert(a);
  auto back = set.at(r.index);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), back.begin()));
}

TEST(StateSet, ManyInsertsSurviveGrowth) {
  verify::CollapsedStateSet set(8 << 20);
  for (std::uint32_t i = 0; i < 50000; ++i) {
    ByteSink sink;
    sink.u32(i);
    auto r = set.insert(sink.bytes());
    ASSERT_EQ(r.outcome, InsertOutcome::Inserted);
    ASSERT_EQ(r.index, i);
  }
  EXPECT_EQ(set.size(), 50000u);
  // Everything still findable.
  ByteSink sink;
  sink.u32(31337);
  EXPECT_EQ(set.insert(sink.bytes()).outcome,
            InsertOutcome::AlreadyPresent);
}

TEST(StateSet, RespectsMemoryLimit) {
  verify::CollapsedStateSet set(32 << 10);
  bool exhausted = false;
  for (std::uint32_t i = 0; i < 100000 && !exhausted; ++i) {
    ByteSink sink;
    sink.u64(i);
    sink.u64(i * 3);
    exhausted =
        set.insert(sink.bytes()).outcome == InsertOutcome::Exhausted;
  }
  EXPECT_TRUE(exhausted);
  EXPECT_LE(set.memory_used(), 32u << 10);
}

}  // namespace
}  // namespace ccref

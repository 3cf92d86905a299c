// Tests for the refinement analysis (§3): message classification,
// request/reply fusion detection (§3.3), its rejection conditions, and the
// elide-ack hand-design deviation.
#include <gtest/gtest.h>

#include <utility>

#include "ir/builder.hpp"
#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"

namespace ccref::refine {
namespace {

using ir::MsgId;
using ir::ProtocolBuilder;
using ir::Type;
using ir::ex::var;

// A RefinedProtocol points into its protocol, so refine() takes lvalues
// only: a temporary protocol would dangle once the full expression ends.
template <class P>
concept Refinable = requires(P&& p) { refine(std::forward<P>(p)); };
static_assert(Refinable<const ir::Protocol&>);
static_assert(Refinable<ir::Protocol&>);
static_assert(!Refinable<ir::Protocol>);
static_assert(!Refinable<ir::Protocol&&>);

TEST(Refine, MigratoryClassification) {
  auto p = protocols::make_migratory();
  auto rp = refine(p);
  // The paper's §5 result: req/gr and inv/ID fuse; LR keeps its ack.
  EXPECT_EQ(rp.cls(p.find_message("req")), MsgClass::FusedRequest);
  EXPECT_EQ(rp.cls(p.find_message("gr")), MsgClass::Reply);
  EXPECT_EQ(rp.cls(p.find_message("inv")), MsgClass::FusedRequest);
  EXPECT_EQ(rp.cls(p.find_message("ID")), MsgClass::Reply);
  EXPECT_EQ(rp.cls(p.find_message("LR")), MsgClass::Normal);
}

TEST(Refine, MigratoryFusionTables) {
  auto p = protocols::make_migratory();
  auto rp = refine(p);
  // Remote fusion: active I --req--> W waits for gr.
  ASSERT_EQ(rp.remote_fusions.size(), 1u);
  EXPECT_EQ(rp.remote_fusions[0].active_state, p.remote.find_state("I"));
  EXPECT_EQ(rp.remote_fusions[0].wait_state, p.remote.find_state("W"));
  EXPECT_EQ(rp.remote_fusions[0].reply, p.find_message("gr"));
  EXPECT_NE(rp.remote_fusion_at(p.remote.find_state("I")), nullptr);
  EXPECT_EQ(rp.remote_fusion_at(p.remote.find_state("V")), nullptr);
  // Home fusion: I1's inv output expects ID.
  ASSERT_EQ(rp.home_fusions.size(), 1u);
  EXPECT_EQ(rp.home_fusions[0].home_state, p.home.find_state("I1"));
  EXPECT_EQ(rp.home_fusions[0].reply, p.find_message("ID"));
  EXPECT_NE(rp.home_fusion_at(p.home.find_state("I1"), 0), nullptr);
}

TEST(Refine, FusionCanBeDisabled) {
  auto p = protocols::make_migratory();
  Options opts;
  opts.request_reply_fusion = false;
  auto rp = refine(p, opts);
  for (MsgId m = 0; m < p.messages.size(); ++m)
    EXPECT_EQ(rp.cls(m), MsgClass::Normal);
  EXPECT_TRUE(rp.remote_fusions.empty());
  EXPECT_TRUE(rp.home_fusions.empty());
}

TEST(Refine, ElideAckMarksMessage) {
  auto p = protocols::make_migratory();
  Options opts;
  opts.elide_ack = {"LR"};
  auto rp = refine(p, opts);
  EXPECT_EQ(rp.cls(p.find_message("LR")), MsgClass::ElideAck);
  // Fusions unaffected.
  EXPECT_EQ(rp.cls(p.find_message("req")), MsgClass::FusedRequest);
}

TEST(Refine, ElideAckRejectsHomeSentMessages) {
  auto p = protocols::make_migratory();
  Options opts;
  opts.elide_ack = {"inv"};
  EXPECT_DEATH((void)refine(p, opts), "remote->home");
}

TEST(Refine, InvalidateClassification) {
  auto p = protocols::make_invalidate();
  auto rp = refine(p);
  // reqS/grS and reqX/grX fuse.
  EXPECT_EQ(rp.cls(p.find_message("reqS")), MsgClass::FusedRequest);
  EXPECT_EQ(rp.cls(p.find_message("grS")), MsgClass::Reply);
  EXPECT_EQ(rp.cls(p.find_message("reqX")), MsgClass::FusedRequest);
  EXPECT_EQ(rp.cls(p.find_message("grX")), MsgClass::Reply);
  // rvk/WB must NOT fuse: WB is also sent voluntarily (M --evict--> WBACK),
  // violating the §3.3 "repl always appears after req" condition.
  EXPECT_EQ(rp.cls(p.find_message("rvk")), MsgClass::Normal);
  EXPECT_EQ(rp.cls(p.find_message("WB")), MsgClass::Normal);
  // inv has no data reply: generic scheme.
  EXPECT_EQ(rp.cls(p.find_message("inv")), MsgClass::Normal);
  EXPECT_EQ(rp.cls(p.find_message("drop")), MsgClass::Normal);
}

TEST(Refine, RepliesThroughDetectsInvID) {
  auto p = protocols::make_migratory();
  auto rp = refine(p);
  const auto& v = p.remote.state(p.remote.find_state("V"));
  ASSERT_EQ(v.inputs.size(), 1u);  // h?inv
  EXPECT_TRUE(rp.remote_replies_through(v.inputs[0]));
  const auto& w = p.remote.state(p.remote.find_state("W"));
  ASSERT_EQ(w.inputs.size(), 1u);  // h?gr -> V (V is not active)
  EXPECT_FALSE(rp.remote_replies_through(w.inputs[0]));
}

TEST(Refine, RequiresBufferCapacityTwo) {
  auto p = protocols::make_migratory();
  Options opts;
  opts.home_buffer_capacity = 1;
  EXPECT_DEATH((void)refine(p, opts), "buffer capacity");
}

/// The home-side §3.3 condition: a reply may only be fired at a remote
/// whose fused request was consumed on every path (found by fuzzing — a
/// home that spontaneously replies to r(j) would crash an idle remote).
TEST(Refine, FusionRejectedWhenHomeRepliesWithoutRequest) {
  ProtocolBuilder b("spont");
  MsgId REQ = b.msg("rq");
  MsgId REPL = b.msg("rp");

  auto& h = b.home();
  ir::VarId j = h.var("j", Type::Node);
  h.comm("IDLE").initial();
  h.comm("R");
  h.input("IDLE", REQ).from_any(j).go("R");
  h.output("R", REPL).to(var(j)).go("IDLE");
  // Second reply site with no consumed request on the path: IDLE can fire
  // rp at whatever stale j holds.
  h.output("IDLE", REPL).to(var(j)).go("IDLE");

  auto& r = b.remote();
  r.comm("A").initial();
  r.comm("W");
  r.output("A", REQ).go("W");
  r.input("W", REPL).go("A");
  auto p = b.build();
  auto rp = refine(p);
  EXPECT_EQ(rp.cls(REQ), MsgClass::Normal);
  EXPECT_EQ(rp.cls(REPL), MsgClass::Normal);
  EXPECT_TRUE(rp.remote_fusions.empty());
}

/// The set-based variant of the flow condition: granting from a waiting set
/// that only ever receives parked requesters is provable (the lock server).
TEST(Refine, ReplyFromWaitingSetIsProvable) {
  ProtocolBuilder b("parkset");
  MsgId REQ = b.msg("rq");
  MsgId REPL = b.msg("rp");

  auto& h = b.home();
  ir::VarId w = h.var("w", Type::NodeSet);
  ir::VarId j = h.var("j", Type::Node);
  ir::VarId t = h.var("t", Type::Node);
  h.comm("L").initial();
  h.input("L", REQ).from_any(j).act(ir::st::set_add(w, var(j))).go("L");
  h.output("L", REPL)
      .when(ir::ex::negate(ir::ex::set_empty(var(w))))
      .to_any_in(var(w), t)
      .act(ir::st::set_remove(w, var(t)))
      .go("L");

  auto& r = b.remote();
  r.comm("A").initial();
  r.comm("W");
  r.output("A", REQ).go("W");
  r.input("W", REPL).go("A");
  auto p = b.build();
  auto rp = refine(p);
  EXPECT_EQ(rp.cls(REQ), MsgClass::FusedRequest);
  EXPECT_EQ(rp.cls(REPL), MsgClass::Reply);
}

/// ...but not when the answered member stays in the set (it would be
/// granted twice).
TEST(Refine, ReplyFromSetWithoutRemovalIsRejected) {
  ProtocolBuilder b("sticky");
  MsgId REQ = b.msg("rq");
  MsgId REPL = b.msg("rp");

  auto& h = b.home();
  ir::VarId w = h.var("w", Type::NodeSet);
  ir::VarId j = h.var("j", Type::Node);
  ir::VarId t = h.var("t", Type::Node);
  h.comm("L").initial();
  h.input("L", REQ).from_any(j).act(ir::st::set_add(w, var(j))).go("L");
  h.output("L", REPL)
      .when(ir::ex::negate(ir::ex::set_empty(var(w))))
      .to_any_in(var(w), t)
      .go("L");  // forgets to remove t from w

  auto& r = b.remote();
  r.comm("A").initial();
  r.comm("W");
  r.output("A", REQ).go("W");
  r.input("W", REPL).go("A");
  auto p = b.build();
  auto rp = refine(p);
  EXPECT_EQ(rp.cls(REQ), MsgClass::Normal);
  EXPECT_EQ(rp.cls(REPL), MsgClass::Normal);
}

/// Fusion must be rejected when the wait state has a second guard (the
/// remote is not guaranteed to be waiting for the reply).
TEST(Refine, FusionRejectedWhenWaitStateHasOtherGuards) {
  ProtocolBuilder b("busy-wait");
  MsgId REQ = b.msg("rq");
  MsgId REPL = b.msg("rp", {Type::Int});
  MsgId POKE = b.msg("poke");

  auto& h = b.home();
  ir::VarId j = h.var("j", Type::Node);
  ir::VarId d = h.var("d", Type::Int, 0, 2);
  h.comm("IDLE").initial();
  h.comm("R");
  h.input("IDLE", REQ).from_any(j).go("R");
  h.output("R", REPL).to(var(j)).pay({var(d)}).go("IDLE");
  h.output("IDLE", POKE).to(var(j)).go("IDLE");

  auto& r = b.remote();
  ir::VarId got = r.var("got", Type::Int, 0, 2);
  r.comm("A").initial();
  r.comm("W");
  r.output("A", REQ).go("W");
  r.input("W", REPL).bind({got}).go("A");
  r.input("W", POKE).go("A");  // second guard spoils the fusion
  auto p = b.build();
  auto rp = refine(p);
  EXPECT_EQ(rp.cls(REQ), MsgClass::Normal);
  EXPECT_EQ(rp.cls(REPL), MsgClass::Normal);
}

/// Fusion must be rejected when the wait state has a second entry path (the
/// remote could sit in W without ever having sent the request).
TEST(Refine, FusionRejectedWhenWaitStateHasOtherEntries) {
  ProtocolBuilder b("second-entry");
  MsgId REQ = b.msg("rq");
  MsgId REPL = b.msg("rp");
  MsgId POKE = b.msg("poke");

  auto& h = b.home();
  ir::VarId j = h.var("j", Type::Node);
  h.comm("IDLE").initial();
  h.comm("R");
  h.input("IDLE", REQ).from_any(j).go("R");
  h.output("R", REPL).to(var(j)).go("IDLE");
  h.output("IDLE", POKE).to(var(j)).go("IDLE");

  auto& r = b.remote();
  r.comm("A").initial();
  r.comm("W");
  r.comm("P");  // unreachable helper state (warning only, not an error)
  r.output("A", REQ).go("W");
  r.input("W", REPL).go("A");
  r.input("P", POKE).go("W");  // second entry into W
  auto p = b.build();
  auto rp = refine(p);
  EXPECT_EQ(rp.cls(REQ), MsgClass::Normal);
  EXPECT_EQ(rp.cls(REPL), MsgClass::Normal);
}

}  // namespace
}  // namespace ccref::refine

// Protocol-level liveness tests: the LTL engine against the CTL-style
// progress analysis, §6 per-node starvation at small vs. large home buffers,
// and lasso re-concretization under symmetry reduction.
//
// The agreement suite pins the paper-level claim both analyses encode: for
// these protocols "some doomed state exists" (check_progress) and "a weakly
// fair run with finitely many completions exists" (G F completion) have the
// same verdict. Doomed regions are successor-closed, so their bottom SCCs
// always support a weakly fair non-completing cycle; the protocols'
// refinements make the converse hold too.
#include <gtest/gtest.h>

#include "ltl/check.hpp"
#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/progress.hpp"

namespace ccref {
namespace {

using refine::Options;
using runtime::AsyncSystem;
using sem::RendezvousSystem;
using verify::FairnessMode;
using verify::LivenessOptions;
using verify::Status;

LivenessOptions weak_opts() {
  LivenessOptions o;
  o.fairness = FairnessMode::Weak;
  return o;
}

/// `G F completion` must agree with check_progress's doomed-state analysis.
template <class Sys>
void expect_agreement(const Sys& sys, const char* what) {
  auto progress = verify::check_progress(sys);
  ASSERT_EQ(progress.status, Status::Ok) << what;
  auto ltl = ltl::check_ltl(sys, "G F completion", weak_opts());
  ASSERT_NE(ltl.status, Status::Unfinished) << what;
  EXPECT_EQ(ltl.status == Status::Ok, progress.doomed == 0)
      << what << ": LTL " << verify::to_string(ltl.status) << " ["
      << ltl.violation << "] vs " << progress.doomed << " doomed states";
}

TEST(LivenessAgreement, AllProtocolsRendezvous) {
  expect_agreement(RendezvousSystem(protocols::make_migratory(), 3),
                   "migratory rv");
  expect_agreement(RendezvousSystem(protocols::make_invalidate(), 3),
                   "invalidate rv");
  expect_agreement(RendezvousSystem(protocols::make_write_update(), 3),
                   "write-update rv");
  expect_agreement(RendezvousSystem(protocols::make_lock_server(), 3),
                   "lock-server rv");
}

TEST(LivenessAgreement, AllProtocolsAsync) {
  auto check = [](const ir::Protocol& p, const char* what) {
    auto rp = refine::refine(p);
    expect_agreement(AsyncSystem(rp, 2), what);
  };
  check(protocols::make_migratory(), "migratory async");
  check(protocols::make_invalidate(), "invalidate async");
  check(protocols::make_write_update(), "write-update async");
  check(protocols::make_lock_server(), "lock-server async");
}

TEST(LivenessAgreement, MisconfiguredBufferLivelocksBothWays) {
  // §3.2's livelock (reservations off) must be seen by both analyses.
  auto p = protocols::make_migratory();
  Options opts;
  opts.progress_buffer = false;
  opts.ack_buffer = false;
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 4);
  auto progress = verify::check_progress(sys);
  ASSERT_EQ(progress.status, Status::Ok);
  EXPECT_GT(progress.doomed, 0u);
  auto ltl = ltl::check_ltl(sys, "G F completion", weak_opts());
  ASSERT_EQ(ltl.status, Status::LivenessViolated);
  EXPECT_FALSE(ltl.cycle.empty());
}

// ---- §6: per-node starvation --------------------------------------------------

LivenessOptions strong_opts() {
  LivenessOptions o;
  o.fairness = FairnessMode::Strong;
  return o;
}

TEST(Starvation, MinimalBufferStarvesANode) {
  // k = 2 guarantees *some* progress (§2.5) but not per-node progress: with
  // three requesters the home can serve two of them forever while remote 0's
  // request is nacked on every retry; no grant to 0 is ever enabled on that
  // cycle, so even strong (service) fairness admits it.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);  // home_buffer_capacity = 2
  AsyncSystem sys(rp, 3);
  auto r = ltl::check_ltl(sys, "G (requested(0) -> F granted(0))",
                          strong_opts());
  ASSERT_EQ(r.status, Status::LivenessViolated) << r.note;
  EXPECT_FALSE(r.cycle.empty());
  // The starving remote keeps being nacked around the cycle: its grant must
  // not appear there.
  for (const auto& step : r.cycle)
    EXPECT_EQ(step.find("<trace reconstruction failed>"), std::string::npos)
        << step;
}

TEST(Starvation, PerNodeBufferSlotsRestoreService) {
  // §6's fix: with a slot per requester plus the ack reservation
  // (k = n + 1), a request is never nacked for lack of space, so it is
  // eventually buffered; once buffered, the grant stays enabled and strong
  // fairness forces it. The starvation formula passes.
  auto p = protocols::make_migratory();
  Options opts;
  opts.home_buffer_capacity = 4;  // n + 1
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 3);
  auto r = ltl::check_ltl(sys, "G (requested(0) -> F granted(0))",
                          strong_opts());
  EXPECT_EQ(r.status, Status::Ok) << r.violation;
}

TEST(Starvation, WeakFairnessIsNotEnough) {
  // Under weak fairness alone even the big buffer starves remote 0: the
  // home may "fairly" serve the other requesters while 0's request sits
  // buffered. This is exactly why §6 needs the service-fairness assumption.
  auto p = protocols::make_migratory();
  Options opts;
  opts.home_buffer_capacity = 4;
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 3);
  auto r = ltl::check_ltl(sys, "G (requested(0) -> F granted(0))",
                          weak_opts());
  EXPECT_EQ(r.status, Status::LivenessViolated);
}

// ---- symmetry composition -----------------------------------------------------

TEST(LivenessSymmetry, QuotientMatchesUnreducedVerdictWithoutFairness) {
  // Fairness-free emptiness is orbit-invariant, so the quotient must agree
  // with the full product while storing fewer states. (G !nacked is a
  // symmetric property the k=2 migratory system genuinely violates.)
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  LivenessOptions none;
  none.fairness = FairnessMode::None;
  auto plain = ltl::check_ltl(sys, "G !nacked", none);
  LivenessOptions sym = none;
  sym.symmetry = verify::SymmetryMode::Canonical;
  auto reduced = ltl::check_ltl(sys, "G !nacked", sym);
  EXPECT_EQ(plain.status, reduced.status);
  EXPECT_EQ(plain.status, Status::LivenessViolated);
  EXPECT_TRUE(reduced.note.empty()) << reduced.note;
  EXPECT_LT(reduced.states, plain.states);
}

TEST(LivenessSymmetry, FairnessForcesDowngradeToFullProduct) {
  // Weak-fairness marks live in per-representative coordinate frames, which
  // the quotient's per-step relabeling mixes up; the engine must refuse the
  // unsound combination (and still return the full-product verdict).
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  auto plain = ltl::check_ltl(sys, "G F completion", weak_opts());
  LivenessOptions sym = weak_opts();
  sym.symmetry = verify::SymmetryMode::Canonical;
  auto reduced = ltl::check_ltl(sys, "G F completion", sym);
  EXPECT_EQ(plain.status, reduced.status);
  EXPECT_EQ(reduced.states, plain.states);  // really ran unreduced
  EXPECT_NE(reduced.note.find("downgraded"), std::string::npos)
      << reduced.note;
}

TEST(LivenessSymmetry, AsymmetricFormulaIsDowngradedNotWrong) {
  // granted(0) names a concrete remote: the orbit quotient is unsound for
  // it, so check_ltl must fall back to the full space and say so.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  LivenessOptions sym = strong_opts();
  sym.symmetry = verify::SymmetryMode::Canonical;
  auto r = ltl::check_ltl(sys, "G (requested(0) -> F granted(0))", sym);
  EXPECT_NE(r.note.find("downgraded"), std::string::npos) << r.note;
  EXPECT_EQ(r.status, Status::LivenessViolated);
}

TEST(LivenessSymmetry, LassoReplaysConcretelyUnderSymmetry) {
  // The reported lasso must be a path of the *uncanonicalized* relation
  // even when the product ran on orbit representatives.
  auto p = protocols::make_migratory();
  Options opts;
  opts.progress_buffer = false;
  opts.ack_buffer = false;
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 4);  // n=4: the smallest livelocking configuration
  LivenessOptions sym;
  sym.fairness = FairnessMode::None;  // keep the quotient active
  sym.symmetry = verify::SymmetryMode::Canonical;
  auto r = ltl::check_ltl(sys, "G F completion", sym);
  ASSERT_EQ(r.status, Status::LivenessViolated);
  for (const auto& step : r.stem)
    EXPECT_EQ(step.find("<trace reconstruction failed>"), std::string::npos)
        << step;
  for (const auto& step : r.cycle)
    EXPECT_EQ(step.find("<trace reconstruction failed>"), std::string::npos)
        << step;
}

// ---- result-shape alignment ---------------------------------------------------

TEST(LivenessResult, CarriesEngineMetadata) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);  // AsyncSystem keeps a pointer into this
  AsyncSystem sys(rp, 2);
  auto r = ltl::check_ltl(sys, "G F completion", weak_opts());
  EXPECT_GT(r.states, 0u);
  EXPECT_GT(r.transitions, 0u);
  EXPECT_GT(r.memory_bytes, 0u);
  EXPECT_GE(r.seconds, 0.0);
}

TEST(LivenessResult, ChargeStaysWithinTheCap) {
  // The product graph, the per-state marks and the SCC scratch are all
  // charged to the cap they run under, so the reported memory never
  // exceeds it: not when the search stops Unfinished, nor when it ends.
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  for (std::size_t cap : {1u << 20, 4u << 20, 16u << 20}) {
    auto o = weak_opts();
    o.memory_limit = cap;
    auto r = ltl::check_ltl(sys, "G F completion", o);
    EXPECT_LE(r.memory_bytes, cap) << verify::to_string(r.status);
  }
}

}  // namespace
}  // namespace ccref

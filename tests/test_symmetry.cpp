// Symmetry (scalarset) reduction: canonicalization must be a true quotient
// — same verification verdicts as the full search with at most as many
// stored states (equal at n=1, strictly fewer once n remotes can actually
// permute), idempotent and invariant across random permutations of a state,
// and counterexample traces reconstructed from orbit representatives must
// replay step-by-step through the *uncanonicalized* transition relation.
#include <gtest/gtest.h>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "support/rng.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using sem::RendezvousSystem;
using verify::SymmetryMode;

template <class Sys>
verify::CheckResult check(const Sys& sys, SymmetryMode symmetry,
                          unsigned jobs = 1) {
  verify::CheckOptions<Sys> opts;
  opts.want_trace = false;
  opts.symmetry = symmetry;
  // writeupdate async at n=3 exhausts the default (Table-3) 64MB budget in
  // the *full* search — the comparison needs both sides to finish.
  opts.memory_limit = 512u << 20;
  return jobs <= 1 ? verify::explore(sys, opts)
                   : verify::par_explore(sys, opts, jobs);
}

ir::NodePerm random_perm(int n, Rng& rng) {
  ir::NodePerm perm(n);
  for (int i = 0; i < n; ++i) perm[i] = static_cast<std::uint8_t>(i);
  for (int i = n - 1; i > 0; --i)
    std::swap(perm[i], perm[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  return perm;
}

template <class Sys>
std::vector<std::byte> enc(const Sys& sys, const typename Sys::State& s) {
  ByteSink sink;
  sys.encode(s, sink);
  return sink.take();
}

// ---- (a) canonical vs off verdict agreement, every protocol x semantics ----

void expect_same_verdict_fewer_states(const ir::Protocol& p, int n,
                                      const char* what) {
  {
    RendezvousSystem sys(p, n);
    auto full = check(sys, SymmetryMode::Off);
    auto quot = check(sys, SymmetryMode::Canonical);
    EXPECT_EQ(quot.status, full.status) << what << " rendezvous n=" << n;
    EXPECT_LE(quot.states, full.states) << what << " rendezvous n=" << n;
  }
  auto rp = refine::refine(p);
  {
    AsyncSystem sys(rp, n);
    auto full = check(sys, SymmetryMode::Off);
    auto quot = check(sys, SymmetryMode::Canonical);
    EXPECT_EQ(quot.status, full.status) << what << " async n=" << n;
    EXPECT_LE(quot.states, full.states) << what << " async n=" << n;
  }
}

TEST(Symmetry, VerdictAgreesMigratory) {
  expect_same_verdict_fewer_states(protocols::make_migratory(), 3,
                                   "migratory");
}

TEST(Symmetry, VerdictAgreesInvalidate) {
  expect_same_verdict_fewer_states(protocols::make_invalidate(), 3,
                                   "invalidate");
}

TEST(Symmetry, VerdictAgreesWriteUpdate) {
  expect_same_verdict_fewer_states(protocols::make_write_update(), 3,
                                   "writeupdate");
}

TEST(Symmetry, VerdictAgreesLockServer) {
  expect_same_verdict_fewer_states(protocols::make_lock_server(), 3,
                                   "lockserver");
}

// ---- (b) quotient size: equal at n=1, strictly smaller at n >= 3 ----------

TEST(Symmetry, NoReductionAtOneRemote) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  {
    RendezvousSystem sys(p, 1);
    EXPECT_EQ(check(sys, SymmetryMode::Canonical).states,
              check(sys, SymmetryMode::Off).states);
  }
  {
    AsyncSystem sys(rp, 1);
    EXPECT_EQ(check(sys, SymmetryMode::Canonical).states,
              check(sys, SymmetryMode::Off).states);
  }
}

TEST(Symmetry, StrictReductionBothEnginesMigratoryN3) {
  // The acceptance bar: at n >= 3 the quotient must be *strictly* smaller
  // with the same verdict, in the sequential and the parallel engine alike.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  for (unsigned jobs : {1u, 4u}) {
    {
      RendezvousSystem sys(p, 3);
      auto full = check(sys, SymmetryMode::Off, jobs);
      auto quot = check(sys, SymmetryMode::Canonical, jobs);
      EXPECT_EQ(quot.status, full.status) << "jobs=" << jobs;
      EXPECT_LT(quot.states, full.states) << "jobs=" << jobs;
    }
    {
      AsyncSystem sys(rp, 3);
      auto full = check(sys, SymmetryMode::Off, jobs);
      auto quot = check(sys, SymmetryMode::Canonical, jobs);
      EXPECT_EQ(quot.status, full.status) << "jobs=" << jobs;
      EXPECT_LT(quot.states, full.states) << "jobs=" << jobs;
    }
  }
}

TEST(Symmetry, SequentialAndParallelQuotientsAgree) {
  // Orbit counts are engine-independent on Ok runs, exactly like full
  // counts are.
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  for (int n : {2, 3}) {
    RendezvousSystem rv(p, n);
    EXPECT_EQ(check(rv, SymmetryMode::Canonical, 1).states,
              check(rv, SymmetryMode::Canonical, 4).states)
        << "rendezvous n=" << n;
    AsyncSystem as(rp, n);
    EXPECT_EQ(check(as, SymmetryMode::Canonical, 1).states,
              check(as, SymmetryMode::Canonical, 4).states)
        << "async n=" << n;
  }
}

// ---- (c) canonicalization is idempotent and permutation-invariant ---------

/// Walk `steps` random transitions from the initial state, checking at each
/// state that canonical(perm(s)) == canonical(s) for random permutations and
/// that canonicalize is idempotent.
template <class Sys>
void expect_canonical_invariance(const Sys& sys, int n, int steps,
                                 std::uint64_t seed) {
  Rng rng(seed);
  auto state = sys.initial();
  for (int step = 0; step < steps; ++step) {
    auto canon = state;
    sys.canonicalize(canon);
    auto twice = canon;
    sys.canonicalize(twice);
    EXPECT_EQ(enc(sys, twice), enc(sys, canon)) << "not idempotent @" << step;
    for (int k = 0; k < 4; ++k) {
      auto permuted = state;
      sys.permute(permuted, random_perm(n, rng));
      sys.canonicalize(permuted);
      EXPECT_EQ(enc(sys, permuted), enc(sys, canon))
          << "orbit split @" << step;
    }
    auto succs = sys.successors(state);
    if (succs.empty()) break;
    state = succs[rng.below(succs.size())].first;
  }
}

TEST(Symmetry, CanonicalInvariantOnRandomWalksRendezvous) {
  for (const auto& p :
       {protocols::make_migratory(), protocols::make_invalidate(),
        protocols::make_write_update(), protocols::make_lock_server()})
    for (int n : {2, 3, 5})
      expect_canonical_invariance(RendezvousSystem(p, n), n, 60, 7 * n);
}

TEST(Symmetry, CanonicalInvariantOnRandomWalksAsync) {
  for (const auto& p :
       {protocols::make_migratory(), protocols::make_invalidate(),
        protocols::make_write_update(), protocols::make_lock_server()}) {
    auto rp = refine::refine(p);
    for (int n : {2, 3, 4})
      expect_canonical_invariance(AsyncSystem(rp, n), n, 60, 11 * n);
  }
}

TEST(Symmetry, PermuteIsAGroupAction) {
  // Composing two permutations must equal applying their composition — the
  // property that makes "orbit" well-defined at all.
  auto p = protocols::make_invalidate();
  RendezvousSystem sys(p, 4);
  Rng rng(99);
  auto state = sys.initial();
  for (int step = 0; step < 20; ++step) {
    auto a = random_perm(4, rng);
    auto b = random_perm(4, rng);
    ir::NodePerm ab(4);
    for (int i = 0; i < 4; ++i) ab[i] = b[a[i]];
    auto s1 = state;
    sys.permute(s1, a);
    sys.permute(s1, b);
    auto s2 = state;
    sys.permute(s2, ab);
    EXPECT_EQ(enc(sys, s1), enc(sys, s2)) << "@" << step;
    auto succs = sys.successors(state);
    if (succs.empty()) break;
    state = succs[rng.below(succs.size())].first;
  }
}

// ---- (d) traces from the quotient replay through the concrete relation ----

/// Walk the trace strings through the real (uncanonicalized) successor
/// relation: every step must be an actual transition whose label and
/// destination render exactly as recorded.
template <class Sys>
typename Sys::State expect_trace_replays(const Sys& sys,
                                         const verify::CheckResult& r) {
  auto cur = sys.initial();
  sys.canonicalize(cur);  // traces start at the root's representative
  EXPECT_EQ(r.trace.front(), "initial: " + sys.describe(cur));
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_EQ(r.trace[i].find("<trace reconstruction failed>"),
              std::string::npos);
    bool advanced = false;
    for (auto& [succ, label] : sys.successors(cur)) {
      if (label.text + "  =>  " + sys.describe(succ) != r.trace[i]) continue;
      cur = std::move(succ);
      advanced = true;
      break;
    }
    EXPECT_TRUE(advanced) << "step " << i << " is not a concrete transition: "
                          << r.trace[i];
    if (!advanced) break;
  }
  return cur;
}

TEST(Symmetry, RendezvousTraceReplaysConcretely) {
  // Seeded bug: flag any remote that reaches V. The quotient must still
  // produce a concrete, replayable path to a violating state.
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 3);
  const ir::StateId rV = p.remote.find_state("V");
  verify::CheckOptions<RendezvousSystem> opts;
  opts.symmetry = SymmetryMode::Canonical;
  opts.invariant = [&](const sem::RvState& s) -> std::string {
    for (const auto& r : s.remotes)
      if (r.state == rV) return "seeded bug: a remote reached V";
    return "";
  };
  auto r = verify::explore(sys, opts);
  ASSERT_EQ(r.status, verify::Status::InvariantViolated);
  ASSERT_GE(r.trace.size(), 2u);
  auto final_state = expect_trace_replays(sys, r);
  EXPECT_FALSE(opts.invariant(final_state).empty())
      << "replayed endpoint does not violate the seeded invariant";
}

TEST(Symmetry, AsyncTraceReplaysConcretely) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  const ir::StateId rV = p.remote.find_state("V");
  verify::CheckOptions<AsyncSystem> opts;
  opts.symmetry = SymmetryMode::Canonical;
  opts.invariant = [&](const runtime::AsyncState& s) -> std::string {
    for (const auto& r : s.remotes)
      if (r.state == rV) return "seeded bug: a remote reached V";
    return "";
  };
  auto r = verify::explore(sys, opts);
  ASSERT_EQ(r.status, verify::Status::InvariantViolated);
  ASSERT_GE(r.trace.size(), 2u);
  auto final_state = expect_trace_replays(sys, r);
  EXPECT_FALSE(opts.invariant(final_state).empty());
}

TEST(Symmetry, ParallelTraceReplaysConcretely) {
  // The parallel engine's trace may be longer than the BFS-minimal one but
  // must be just as concrete.
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 3);
  const ir::StateId rV = p.remote.find_state("V");
  verify::CheckOptions<RendezvousSystem> opts;
  opts.symmetry = SymmetryMode::Canonical;
  opts.invariant = [&](const sem::RvState& s) -> std::string {
    for (const auto& r : s.remotes)
      if (r.state == rV) return "seeded bug: a remote reached V";
    return "";
  };
  auto r = verify::par_explore(sys, opts, 4);
  ASSERT_EQ(r.status, verify::Status::InvariantViolated);
  ASSERT_GE(r.trace.size(), 2u);
  auto final_state = expect_trace_replays(sys, r);
  EXPECT_FALSE(opts.invariant(final_state).empty());
}

}  // namespace
}  // namespace ccref

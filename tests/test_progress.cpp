// Tests for the forward-progress (livelock) analysis — §2.5 / §3.2.
//
// The flagship cases reproduce the paper's buffer-reservation arguments:
// with the progress buffer and ack buffer enabled, the refined protocols
// have no doomed states; disabling either reservation creates the livelock
// the paper warns about (requests nacked forever while a completing
// writeback can never be buffered).
#include <gtest/gtest.h>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/graph.hpp"
#include "verify/progress.hpp"

namespace ccref {
namespace {

using refine::Options;
using runtime::AsyncSystem;

TEST(Progress, RendezvousMigratoryNeverDoomed) {
  auto p = protocols::make_migratory();
  auto r = verify::check_progress(sem::RendezvousSystem(p, 3));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 0u) << r.doomed_example;
  EXPECT_GT(r.completing_edges, 0u);
}

TEST(Progress, RefinedMigratoryNeverDoomed) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  auto r = verify::check_progress(AsyncSystem(rp, 3));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 0u) << r.doomed_example;
}

TEST(Progress, RefinedInvalidateNeverDoomed) {
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  auto r = verify::check_progress(AsyncSystem(rp, 3));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 0u) << r.doomed_example;
}

TEST(Progress, DisablingReservationsCreatesLivelock) {
  // §3.2's motivating failure: without the buffer reservations the home's
  // buffer fills with requests that cannot complete in its current state,
  // and the one message that could (the owner's relinquish) is nacked
  // forever. Four remotes are needed to fill a k=2 buffer with junk while a
  // revocation is outstanding (owner + requester + two spammers).
  auto p = protocols::make_migratory();
  Options opts;
  opts.progress_buffer = false;
  opts.ack_buffer = false;
  auto rp = refine::refine(p, opts);
  auto r = verify::check_progress(AsyncSystem(rp, 4));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 456u);
}

TEST(Progress, ReservationAblationCountsArePinned) {
  // EXPERIMENTS.md § A-ABL's migratory N=4 rows, exact, under both storage
  // encodings: every reservation setting explores the same graph whether
  // states are stored whole or as COLLAPSE index tuples.
  struct Row {
    bool progress_buffer, ack_buffer;
    std::size_t states, transitions, completing, doomed;
  };
  constexpr Row kRows[] = {
      {true, true, 43'956, 165'744, 29'400, 0},
      {true, false, 43'956, 165'744, 29'400, 0},
      {false, true, 45'996, 169'944, 30'960, 0},
      {false, false, 46'284, 170'376, 30'984, 456},
  };
  auto p = protocols::make_migratory();
  for (auto compress :
       {verify::CompressionMode::Off, verify::CompressionMode::Collapse}) {
    for (const Row& row : kRows) {
      SCOPED_TRACE(testing::Message()
                   << verify::to_string(compress) << " progress_buffer="
                   << row.progress_buffer << " ack_buffer=" << row.ack_buffer);
      Options opts;
      opts.progress_buffer = row.progress_buffer;
      opts.ack_buffer = row.ack_buffer;
      auto rp = refine::refine(p, opts);
      auto r = verify::check_progress(AsyncSystem(rp, 4),
                                      {.compress = compress});
      ASSERT_EQ(r.status, verify::Status::Ok);
      EXPECT_EQ(r.states, row.states);
      EXPECT_EQ(r.transitions, row.transitions);
      EXPECT_EQ(r.completing_edges, row.completing);
      EXPECT_EQ(r.doomed, row.doomed);
    }
  }
}

TEST(Progress, ReservationsPreventThatLivelock) {
  // Same configuration with the reservations on: no doomed states.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  auto r = verify::check_progress(AsyncSystem(rp, 4));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 0u) << r.doomed_example;
}

TEST(Progress, HandDesignStillProgresses) {
  auto p = protocols::make_migratory();
  Options opts;
  opts.elide_ack = {"LR"};
  auto rp = refine::refine(p, opts);
  auto r = verify::check_progress(AsyncSystem(rp, 3));
  ASSERT_EQ(r.status, verify::Status::Ok);
  EXPECT_EQ(r.doomed, 0u) << r.doomed_example;
}

TEST(Progress, MemoryExhaustionReportsUnfinished) {
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  auto r = verify::check_progress(AsyncSystem(rp, 3),
                                  {.memory_limit = 64 << 10});
  EXPECT_EQ(r.status, verify::Status::Unfinished);
}

TEST(Progress, ChargeStaysWithinTheCap) {
  // The graph and the SCC scratch are charged chunk by chunk to the one
  // budget, so the reported memory is what the budget holds and never
  // exceeds the cap, whether the search fails in the BFS or after it.
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  for (std::size_t cap : {64u << 10, 1u << 20, 2u << 20, 64u << 20}) {
    auto r = verify::check_progress(AsyncSystem(rp, 3), {.memory_limit = cap});
    EXPECT_LE(r.memory_bytes, cap) << verify::to_string(r.status);
  }
}

// ---- the shared graph: EdgeStore + Tarjan ----------------------------------

/// Build a graph from adjacency lists (states open in order).
void build(verify::detail::EdgeStore& g,
           const std::vector<std::vector<std::uint32_t>>& adj) {
  for (std::uint32_t v = 0; v < adj.size(); ++v) {
    ASSERT_TRUE(g.open(v));
    for (std::uint32_t w : adj[v]) ASSERT_TRUE(g.add(w));
  }
  ASSERT_TRUE(g.open(static_cast<std::uint32_t>(adj.size())));
}

std::vector<std::uint32_t> members(const verify::detail::Tarjan::Scc& scc) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < scc.size(); ++i) out.push_back(scc[i]);
  return out;
}

TEST(Graph, TarjanEmitsSinksFirstInPopOrder) {
  verify::MemoryBudget budget(1u << 20);
  verify::detail::EdgeStore g(budget);
  // 0 -> 1 -> 2 -> {1, 3}, 3 -> 3, and 4 -> 0 reached only as a root.
  build(g, {{1}, {2}, {1, 3}, {3}, {0}});
  verify::detail::Tarjan tarjan(g, budget);
  ASSERT_TRUE(tarjan.start(5));
  std::vector<std::vector<std::uint32_t>> sccs;
  auto emit = [&](const verify::detail::Tarjan::Scc& scc) {
    sccs.push_back(members(scc));
    for (std::uint32_t v = 0; v < 5; ++v)
      EXPECT_EQ(scc.contains(v), std::count(sccs.back().begin(),
                                            sccs.back().end(), v) == 1);
    return true;
  };
  for (std::uint32_t v = 0; v < 5; ++v) ASSERT_TRUE(tarjan.run(v, emit));
  const std::vector<std::vector<std::uint32_t>> want{
      {3}, {2, 1}, {0}, {4}};
  EXPECT_EQ(sccs, want);
  EXPECT_EQ(g.edges(), 6u);
  EXPECT_LE(budget.used(), budget.limit());
}

TEST(Graph, SplitDecomposesTheKeptMembers) {
  verify::MemoryBudget budget(1u << 20);
  verify::detail::EdgeStore g(budget);
  // One SCC {0, 1, 2, 3}: 0 <-> 1 and 2 <-> 3, joined through 1 -> 2 -> 0.
  // Without 2 it falls apart into the single 3 and {0, 1}.
  build(g, {{1}, {0, 2}, {3, 0}, {2}});
  verify::detail::Tarjan tarjan(g, budget);
  ASSERT_TRUE(tarjan.start(4));
  std::vector<std::vector<std::uint32_t>> outer, inner;
  auto emit = [&](const verify::detail::Tarjan::Scc& scc) {
    outer.push_back(members(scc));
    return tarjan.split(
        scc, [](std::uint32_t v) { return v != 2; },
        [&](const verify::detail::Tarjan::Scc& sub) {
          inner.push_back(members(sub));
          return true;
        });
  };
  ASSERT_TRUE(tarjan.run(0, emit));
  EXPECT_EQ(outer, (std::vector<std::vector<std::uint32_t>>{{3, 2, 1, 0}}));
  EXPECT_EQ(inner, (std::vector<std::vector<std::uint32_t>>{{3}, {0, 1}}));
}

}  // namespace
}  // namespace ccref

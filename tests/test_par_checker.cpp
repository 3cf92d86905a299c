// The parallel engine must agree with the sequential one: identical status,
// state count, and transition count on every Ok run (exploration order is
// the only thing that differs), and identical status on violation /
// exhaustion runs (the offending state may legitimately differ).
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "random_protocol.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using sem::RendezvousSystem;
using sem::RvState;

constexpr unsigned kJobs = 4;

template <class Sys>
void expect_engines_agree(const Sys& sys, const char* what) {
  verify::CheckOptions<Sys> opts;
  opts.want_trace = false;
  auto seq = verify::explore(sys, opts);
  const unsigned max_jobs =
      std::max(2u, ThreadPool::default_concurrency());
  for (unsigned jobs : {1u, kJobs, max_jobs}) {
    auto par = verify::par_explore(sys, opts, jobs);
    EXPECT_EQ(par.status, seq.status) << what << " jobs=" << jobs;
    EXPECT_EQ(par.states, seq.states) << what << " jobs=" << jobs;
    EXPECT_EQ(par.transitions, seq.transitions) << what << " jobs=" << jobs;
  }
}

void expect_both_semantics_agree(const ir::Protocol& p, int n,
                                 const char* what) {
  expect_engines_agree(RendezvousSystem(p, n), what);
  auto rp = refine::refine(p);
  expect_engines_agree(AsyncSystem(rp, n), what);
}

TEST(ParChecker, MatchesSequentialMigratory) {
  expect_both_semantics_agree(protocols::make_migratory(), 2, "migratory");
}

TEST(ParChecker, MatchesSequentialInvalidate) {
  expect_both_semantics_agree(protocols::make_invalidate(), 2, "invalidate");
}

TEST(ParChecker, MatchesSequentialWriteUpdate) {
  expect_both_semantics_agree(protocols::make_write_update(), 2,
                              "writeupdate");
}

TEST(ParChecker, MatchesSequentialLockServer) {
  expect_both_semantics_agree(protocols::make_lock_server(), 2, "lockserver");
}

TEST(ParChecker, RendezvousAtLargerN) {
  // More states, more stealing: the parallel totals must still be exact.
  expect_engines_agree(RendezvousSystem(protocols::make_migratory(), 6),
                       "migratory n=6");
}

// Random §2.4 fragment protocols (random_protocol.hpp), refined. Some
// deadlock, so counts must match only where the status is Ok.
class RandomProtocol : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProtocol, ParallelAgreesWithSequential) {
  auto p = fuzz::random_protocol(GetParam());
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.memory_limit = 512u << 20;
  auto seq = verify::explore(sys, opts);
  auto par = verify::par_explore(sys, opts, kJobs);
  ASSERT_EQ(par.status, seq.status);
  if (seq.status != verify::Status::Ok) return;
  EXPECT_EQ(par.states, seq.states);
  EXPECT_EQ(par.transitions, seq.transitions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProtocol,
                         testing::Values<std::uint64_t>(1, 2, 5, 9, 13, 21,
                                                        34, 55));

TEST(ParChecker, UnfinishedStatusMatchesUnderTightBudget) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  verify::CheckOptions<AsyncSystem> opts;
  opts.memory_limit = 1u << 20;
  opts.want_trace = false;
  AsyncSystem sys(rp, 4);
  auto seq = verify::explore(sys, opts);
  auto par = verify::par_explore(sys, opts, kJobs);
  EXPECT_EQ(seq.status, verify::Status::Unfinished);
  EXPECT_EQ(par.status, verify::Status::Unfinished);
  EXPECT_GT(par.states, 0u);
  EXPECT_LE(par.memory_bytes, opts.memory_limit);
}

TEST(ParChecker, InvariantViolationDetectedWithTrace) {
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 2);
  verify::CheckOptions<RendezvousSystem> opts;
  ir::StateId rV = p.remote.find_state("V");
  opts.invariant = [rV](const RvState& s) {
    for (const auto& r : s.remotes)
      if (r.state == rV) return "someone reached V";
    return "";
  };
  auto par = verify::par_explore(sys, opts, kJobs);
  ASSERT_EQ(par.status, verify::Status::InvariantViolated);
  EXPECT_EQ(par.violation, "someone reached V");
  // The parallel trace is a real path (possibly non-minimal): it starts at
  // the root and every step reconstructs.
  ASSERT_GE(par.trace.size(), 2u);
  EXPECT_NE(par.trace[0].find("initial"), std::string::npos);
  for (const auto& step : par.trace)
    EXPECT_EQ(step.find("<trace reconstruction failed>"), std::string::npos)
        << step;
}

TEST(ParChecker, InvariantViolationOnInitialState) {
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 1);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.invariant = [](const RvState&) { return "always broken"; };
  auto par = verify::par_explore(sys, opts, kJobs);
  EXPECT_EQ(par.status, verify::Status::InvariantViolated);
  EXPECT_EQ(par.states, 1u);
  ASSERT_EQ(par.trace.size(), 1u);
}

TEST(ParChecker, EdgeCheckRuns) {
  // An edge check that rejects every completing rendezvous must fire in both
  // engines; labels must be materialized for its diagnostic.
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 2);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.edge_check = [](const RvState&, const RvState&, const sem::Label& l) {
    return l.completes_rendezvous ? "rendezvous forbidden" : "";
  };
  auto seq = verify::explore(sys, opts);
  auto par = verify::par_explore(sys, opts, kJobs);
  EXPECT_EQ(seq.status, verify::Status::InvariantViolated);
  EXPECT_EQ(par.status, verify::Status::InvariantViolated);
  EXPECT_NE(par.violation.find("edge '"), std::string::npos);
  EXPECT_NE(par.violation.find("rendezvous forbidden"), std::string::npos);
}

TEST(ParChecker, QuietLabelsStillCountMessages) {
  // LabelMode::Quiet must not change enumeration, only skip text.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  auto s = sys.initial();
  auto full = sys.successors(s, sem::LabelMode::Full);
  auto quiet = sys.successors(s, sem::LabelMode::Quiet);
  ASSERT_EQ(full.size(), quiet.size());
  ASSERT_FALSE(full.empty());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].first, quiet[i].first);
    EXPECT_FALSE(full[i].second.text.empty());
    EXPECT_TRUE(quiet[i].second.text.empty());
    EXPECT_EQ(full[i].second.decision, quiet[i].second.decision);
    EXPECT_EQ(full[i].second.messages_sent(),
              quiet[i].second.messages_sent());
    EXPECT_EQ(full[i].second.completes_rendezvous,
              quiet[i].second.completes_rendezvous);
  }
}

// ---- the frontier by reference, on the budget ------------------------------

using verify::FrontierLog;
using verify::MemoryBudget;

TEST(FrontierLog, RefusedChunkFailsTheAppendAndBooksBalance) {
  MemoryBudget budget(FrontierLog::kChunkBytes + 1024);
  FrontierLog log(budget);
  const std::vector<std::byte> bytes(100, std::byte{7});
  std::vector<std::uint64_t> handles;
  for (std::uint64_t ref = 0;; ++ref) {
    const std::uint64_t h = log.append(ref, bytes);
    if (h == 0) break;
    handles.push_back(h);
    ASSERT_LT(handles.size(), 1000u) << "the budget never refused";
  }
  // One chunk was granted; the second was refused, not overdrawn.
  EXPECT_EQ(log.charged(), FrontierLog::kChunkBytes);
  EXPECT_EQ(budget.used(), log.charged());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const auto e = FrontierLog::entry(handles[i]);
    EXPECT_EQ(e.ref, i);
    EXPECT_TRUE(std::equal(e.bytes.begin(), e.bytes.end(), bytes.begin(),
                           bytes.end()));
  }
  for (auto h : handles) log.consume(h);
  log.seal();
  EXPECT_EQ(log.charged(), 0u);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(FrontierLog, ChunkIsReleasedByWhicheverThreadTakesItsLastEntry) {
  // The owner fills three chunks; a thief consumes the oldest half of the
  // entries, as steals would, and the owner pops the rest newest first.
  // Every chunk is freed by the consume of its last entry, whoever makes
  // it, and popping the newest entries lets the owner reuse their bytes.
  MemoryBudget budget(1u << 20);
  FrontierLog log(budget);
  const std::vector<std::byte> bytes(200, std::byte{1});
  std::vector<std::uint64_t> handles;
  while (log.charged() < 3 * FrontierLog::kChunkBytes)
    handles.push_back(log.append(handles.size(), bytes));
  const std::size_t half = handles.size() / 2;
  std::thread thief([&] {
    FrontierLog own(budget);  // a thief consumes through its own log
    for (std::size_t i = 0; i < half; ++i) own.consume(handles[i]);
  });
  thief.join();
  EXPECT_LE(log.charged(), 2 * FrontierLog::kChunkBytes);
  // The newest entry popped and re-appended lands where it was.
  const std::uint64_t newest = handles.back();
  log.consume(newest);
  handles.back() = log.append(7, bytes);
  EXPECT_EQ(handles.back(), newest);
  for (std::size_t i = handles.size(); i-- > half;) log.consume(handles[i]);
  // The chunk appends go to stays until the owner seals it.
  EXPECT_EQ(log.charged(), FrontierLog::kChunkBytes);
  log.seal();
  EXPECT_EQ(log.charged(), 0u);
  EXPECT_EQ(budget.used(), 0u);
}

/// A parallel run that samples its memory after every expansion (and once
/// after the join) through par_explore's probe.
struct SampledRun {
  verify::CheckResult result;
  std::size_t samples = 0;
  std::size_t uncovered = 0;  // samples whose budget fell short of the frontier
  std::size_t peak_log = 0;
  std::size_t peak_ring = 0;
  // The sample taken once every worker joined.
  std::size_t final_ring = 0;
  std::size_t final_log = 0;
  std::size_t final_set = 0;
};

template <class Sys>
SampledRun sampled_run(const Sys& sys, const verify::CheckOptions<Sys>& opts,
                       unsigned jobs) {
  SampledRun run;
  std::mutex mu;
  run.result = verify::par_explore(
      sys, opts, jobs, [&](const verify::detail::FrontierSample& s) {
        const std::size_t held = s.ring_bytes + s.log_bytes;
        const std::size_t used = s.seen.memory_used();
        std::lock_guard<std::mutex> lock(mu);
        ++run.samples;
        run.uncovered += used < held;
        run.peak_log = std::max(run.peak_log, s.log_bytes);
        run.peak_ring = std::max(run.peak_ring, s.ring_bytes);
        if (s.joined) {
          run.final_ring = s.ring_bytes;
          run.final_log = s.log_bytes;
          run.final_set = s.seen.charged();
        }
      });
  return run;
}

TEST(FrontierBudget, EveryFrontierByteIsChargedAndReturned) {
  // Async invalidate N=3 at 4 jobs under hash compaction (the frontier
  // lives in the workers' logs) and Collapse (handles name records):
  // mid-run the budget covers every frontier byte held, and after an Ok
  // run no log chunk is left while memory_bytes is exactly the set's
  // tables, pools and dictionaries plus the deque rings.
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  for (bool compact : {true, false}) {
    SCOPED_TRACE(compact ? "hash-compact" : "collapse");
    verify::CheckOptions<AsyncSystem> opts;
    opts.want_trace = false;
    opts.hash_compact = compact;
    opts.compress = compact ? verify::CompressionMode::Off
                            : verify::CompressionMode::Collapse;
    const auto seq = verify::explore(sys, opts);
    ASSERT_EQ(seq.status, verify::Status::Ok);
    const auto run = sampled_run(sys, opts, kJobs);
    ASSERT_EQ(run.result.status, verify::Status::Ok);
    EXPECT_EQ(run.result.states, seq.states);
    EXPECT_EQ(run.result.transitions, seq.transitions);
    EXPECT_GT(run.samples, run.result.states);  // one per expansion, + 1
    EXPECT_EQ(run.uncovered, 0u);
    EXPECT_GT(run.peak_ring, kJobs * 64 * sizeof(std::uint64_t))
        << "no deque ever grew: the test no longer exercises ring charges";
    if (compact) {
      EXPECT_GT(run.peak_log, 0u);
    }
    EXPECT_EQ(run.final_log, 0u);
    EXPECT_EQ(run.result.memory_bytes, run.final_set + run.final_ring);
  }
}

/// Bytes a ChunkedIndex holds for `n` entries of `width` bytes: chunks of
/// 64 << k entries until they cover n.
std::size_t index_bytes(std::size_t n, std::size_t width) {
  std::size_t bytes = 0;
  for (std::size_t k = 0, held = 0; held < n; ++k) {
    held += std::size_t{64} << k;
    bytes += (std::size_t{64} << k) * width;
  }
  return bytes;
}

TEST(FrontierBudget, SequentialLogIsChargedAndReturned) {
  // The sequential twin of the test above: explore()'s BFS (bfs_reach)
  // under hash compaction queues every fresh encoding in the set's
  // FrontierLog. Before each expansion the budget covers the log bytes
  // held; once the search is complete no log chunk is left, and the set's
  // charge is exactly its fingerprint table, the idle record table's
  // 64-slot floor and the traced run's parent and fingerprint indices.
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  verify::CheckOptions<AsyncSystem> opts;
  opts.hash_compact = true;
  const auto reference = verify::explore(sys, opts);
  ASSERT_EQ(reference.status, verify::Status::Ok);

  const auto st = verify::detail::resolve_storage(opts).storage;
  verify::CollapsedStateSet seen(opts.memory_limit, st,
                                 /*track_parents=*/true);
  std::size_t samples = 0, uncovered = 0, peak_log = 0, transitions = 0;
  const auto outcome = verify::detail::bfs_reach(
      sys, seen, verify::SymmetryMode::Off, sem::LabelMode::Quiet,
      [&](std::uint32_t, const auto&) {
        ++samples;
        uncovered += seen.budget().used() < seen.log_bytes();
        peak_log = std::max(peak_log, seen.log_bytes());
        return true;
      },
      [&](std::uint32_t, const auto&, const auto&, const sem::Label&) {
        ++transitions;
        return true;
      },
      [](std::uint32_t, const auto&, const auto&, const sem::Label&) {
        return true;
      },
      [](std::uint32_t, const auto&) { return true; });
  ASSERT_EQ(outcome, verify::detail::BfsOutcome::Complete);
  EXPECT_EQ(seen.size(), reference.states);
  EXPECT_EQ(transitions, reference.transitions);
  EXPECT_EQ(samples, reference.states);
  EXPECT_EQ(uncovered, 0u);
  EXPECT_GT(peak_log, FrontierLog::kChunkBytes)
      << "the frontier never outgrew a chunk: the test no longer exercises "
         "chunk turnover";
  EXPECT_EQ(seen.log_bytes(), 0u);
  EXPECT_EQ(seen.memory_used(), seen.budget().used());
  const std::size_t idle_table = 64 * sizeof(std::uint64_t);
  EXPECT_EQ(seen.memory_used(),
            seen.stored_bytes() + idle_table +
                index_bytes(seen.size(), sizeof(std::uint32_t)) +
                index_bytes(seen.size(), sizeof(std::uint64_t)));
  EXPECT_EQ(reference.memory_bytes, seen.memory_used());
}

TEST(FrontierBudget, BudgetTooSmallForTheFrontierEndsUnfinished) {
  // Under hash compaction each worker's first fresh state opens a log
  // chunk, so a budget of a few chunks runs out in the frontier while the
  // visited set still fits. Refusals anywhere (log chunk, ring, record)
  // must end the run Unfinished inside the limit, never abort.
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  for (std::size_t limit : {std::size_t{48} << 10, std::size_t{96} << 10,
                            std::size_t{192} << 10, std::size_t{768} << 10}) {
    SCOPED_TRACE(limit);
    verify::CheckOptions<AsyncSystem> opts;
    opts.want_trace = false;
    opts.hash_compact = true;
    opts.memory_limit = limit;
    const auto run = sampled_run(sys, opts, kJobs);
    EXPECT_EQ(run.result.status, verify::Status::Unfinished);
    EXPECT_GT(run.result.states, 0u);
    EXPECT_LE(run.result.memory_bytes, limit);
    EXPECT_EQ(run.uncovered, 0u);
  }
}

// ---- agreement across jobs x storage tier x symmetry -----------------------

enum class Tier { Full, Collapse, HashCompact };

const char* name_of(Tier t) {
  switch (t) {
    case Tier::Full: return "full";
    case Tier::Collapse: return "collapse";
    case Tier::HashCompact: return "hash-compact";
  }
  return "?";
}

template <class Sys>
void set_tier(verify::CheckOptions<Sys>& opts, Tier tier) {
  opts.compress = tier == Tier::Collapse ? verify::CompressionMode::Collapse
                                         : verify::CompressionMode::Off;
  opts.hash_compact = tier == Tier::HashCompact;
}

TEST(FrontierAgreement, JobsByTierBySymmetryMatchSequential) {
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  for (auto symmetry :
       {verify::SymmetryMode::Off, verify::SymmetryMode::Canonical}) {
    for (Tier tier : {Tier::Full, Tier::Collapse, Tier::HashCompact}) {
      verify::CheckOptions<AsyncSystem> opts;
      opts.want_trace = false;
      opts.symmetry = symmetry;
      set_tier(opts, tier);
      const auto seq = verify::explore(sys, opts);
      ASSERT_EQ(seq.status, verify::Status::Ok);
      for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(std::string(name_of(tier)) + " symmetry=" +
                     verify::to_string(symmetry) +
                     " jobs=" + std::to_string(jobs));
        const auto par = verify::par_explore(sys, opts, jobs);
        ASSERT_EQ(par.status, verify::Status::Ok);
        EXPECT_EQ(par.states, seq.states);
        EXPECT_EQ(par.transitions, seq.transitions);
      }
    }
  }
}

/// Walk a trace through the concrete successor relation: each step must be
/// a real transition that renders exactly as recorded. Returns the state
/// the trace ends in.
template <class Sys>
typename Sys::State replay_trace(const Sys& sys, const verify::CheckResult& r,
                                 verify::SymmetryMode symmetry) {
  auto cur = sys.initial();
  verify::detail::maybe_canonicalize(sys, cur, symmetry);
  EXPECT_EQ(r.trace.front(), "initial: " + sys.describe(cur));
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    bool advanced = false;
    for (auto& [succ, label] : sys.successors(cur)) {
      if (label.text + "  =>  " + sys.describe(succ) != r.trace[i]) continue;
      cur = std::move(succ);
      advanced = true;
      break;
    }
    EXPECT_TRUE(advanced) << "step " << i << ": " << r.trace[i];
    if (!advanced) break;
  }
  return cur;
}

TEST(FrontierAgreement, TracedViolationsReplayAsConcretePaths) {
  // Seeded bug: a remote reaching V. Every tier, job count and symmetry
  // mode must report it with a trace that replays through the concrete
  // transition relation to a state that violates the invariant. At one
  // job under Collapse the owner's pops return the successor it queued
  // last, so the violating state's chain runs through the copies a worker
  // keeps of those encodings instead of expansions of their records.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  const ir::StateId rV = p.remote.find_state("V");
  for (auto symmetry :
       {verify::SymmetryMode::Off, verify::SymmetryMode::Canonical}) {
    for (Tier tier : {Tier::Full, Tier::Collapse, Tier::HashCompact}) {
      for (unsigned jobs : {1u, kJobs}) {
        SCOPED_TRACE(std::string(name_of(tier)) + " symmetry=" +
                     verify::to_string(symmetry) +
                     " jobs=" + std::to_string(jobs));
        verify::CheckOptions<AsyncSystem> opts;
        opts.symmetry = symmetry;
        set_tier(opts, tier);
        opts.invariant = [&](const runtime::AsyncState& s) -> std::string {
          for (const auto& r : s.remotes)
            if (r.state == rV) return "seeded bug: a remote reached V";
          return "";
        };
        const auto r = verify::par_explore(sys, opts, jobs);
        ASSERT_EQ(r.status, verify::Status::InvariantViolated);
        ASSERT_GE(r.trace.size(), 3u);
        const auto end = replay_trace(sys, r, symmetry);
        EXPECT_FALSE(opts.invariant(end).empty())
            << "the replayed path ends in a state that does not violate";
      }
    }
  }
}

}  // namespace
}  // namespace ccref

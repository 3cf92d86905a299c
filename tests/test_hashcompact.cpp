// Hash-compaction storage tier (FingerprintTable in
// support/atomic_table.hpp, the FrontierLog the sequential set queues
// through, and the hash_compact routing in collapse.hpp / checker.hpp /
// par_checker.hpp): the fingerprint table's budget discipline and
// lock-free admission, the birthday-bound omission
// estimate, verdict/count agreement with full storage across the engine x
// symmetry x compression matrix, counterexample traces that stay
// exact under compaction, and — via a deliberately colliding fingerprint
// stub — proof that a collision degrades into a REPORTED omission
// probability, never a silently wrong count presented as exact.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "support/atomic_table.hpp"
#include "verify/checker.hpp"
#include "verify/collapse.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using verify::CollapsedStateSet;
using verify::CompressionMode;
using verify::MemoryBudget;
using verify::StorageOptions;
using verify::SymmetryMode;

// ---- FingerprintTable unit -------------------------------------------------

using Table = FingerprintTable<MemoryBudget>;

TEST(FingerprintTable, InsertDupAndGrowth) {
  MemoryBudget budget(4 << 20);
  Table set(budget, 1024);
  // Enough inserts to force several doublings past the 1024-slot floor.
  for (std::uint64_t i = 1; i <= 10000; ++i) {
    ASSERT_EQ(set.insert(i * 0x9e3779b97f4a7c15ull), InsertOutcome::Inserted)
        << "i " << i;
    ASSERT_EQ(set.size(), i);
  }
  for (std::uint64_t i = 1; i <= 10000; ++i)
    EXPECT_EQ(set.insert(i * 0x9e3779b97f4a7c15ull),
              InsertOutcome::AlreadyPresent);
  EXPECT_EQ(set.size(), 10000u);
  EXPECT_EQ(budget.used(), set.charged());
}

TEST(FingerprintTable, ZeroFingerprintFoldsOntoOne) {
  // 0 marks an empty slot, so fingerprint 0 costs one bit: it aliases 1.
  MemoryBudget budget(1 << 20);
  Table set(budget, 1024);
  EXPECT_EQ(set.insert(0), InsertOutcome::Inserted);
  EXPECT_EQ(set.insert(1), InsertOutcome::AlreadyPresent);
  EXPECT_EQ(set.size(), 1u);
}

TEST(FingerprintTable, ExhaustionAtHardCapWhenGrowthRefused) {
  // Budget fits the 1024-slot floor but no doubling: inserts must keep
  // landing past the 70% growth trigger up to the 95% hard cap, then
  // report Exhausted without bursting the budget.
  MemoryBudget budget(12 << 10);
  Table set(budget, 1024);
  std::size_t accepted = 0;
  for (std::uint64_t i = 1;; ++i) {
    const auto o = set.insert(i * 0x9e3779b97f4a7c15ull);
    if (o == InsertOutcome::Exhausted) break;
    ASSERT_EQ(o, InsertOutcome::Inserted);
    ++accepted;
    ASSERT_LT(i, 100000u);
  }
  EXPECT_GT(accepted, 1024u * 7 / 10);  // past the growth trigger...
  EXPECT_EQ(accepted, 1024u * 19 / 20);  // ...up to the 95% cap
  EXPECT_EQ(set.size(), accepted);
  EXPECT_LE(budget.used(), budget.limit());
  // Every accepted fingerprint is still findable after exhaustion.
  for (std::uint64_t i = 1; i <= accepted; ++i)
    EXPECT_EQ(set.insert(i * 0x9e3779b97f4a7c15ull),
              InsertOutcome::AlreadyPresent);
}

TEST(FingerprintTable, GrowRacesSiblingChargeOnSharedBudget) {
  // Two tables drawing on one near-exhausted budget: A's growth (a
  // try_reserve of the doubled array) interleaves with B's charges. Any
  // outcome is legal per insert — what must hold is that a refused grow
  // never corrupts already-accepted entries, the budget never bursts, and
  // every accepted fingerprint stays findable afterwards.
  MemoryBudget budget(40 << 10);
  Table a(budget, 1024);
  Table b(budget, 1024);
  std::size_t accepted_a = 0, accepted_b = 0;
  bool full_a = false, full_b = false;
  for (std::uint64_t i = 1; !(full_a && full_b); ++i) {
    ASSERT_LT(i, 100000u);
    if (!full_a) {
      if (a.insert(i * 0x9e3779b97f4a7c15ull) == InsertOutcome::Exhausted)
        full_a = true;
      else
        ++accepted_a;
    }
    if (!full_b) {
      if (b.insert(i * 0xc2b2ae3d27d4eb4full) == InsertOutcome::Exhausted)
        full_b = true;
      else
        ++accepted_b;
    }
    ASSERT_LE(budget.used(), budget.limit());
  }
  EXPECT_GT(accepted_a, 0u);
  EXPECT_GT(accepted_b, 0u);
  EXPECT_EQ(a.size(), accepted_a);
  EXPECT_EQ(b.size(), accepted_b);
  EXPECT_EQ(budget.used(), a.charged() + b.charged());
  for (std::uint64_t i = 1; i <= accepted_a; ++i)
    ASSERT_EQ(a.insert(i * 0x9e3779b97f4a7c15ull),
              InsertOutcome::AlreadyPresent);
  for (std::uint64_t i = 1; i <= accepted_b; ++i)
    ASSERT_EQ(b.insert(i * 0xc2b2ae3d27d4eb4full),
              InsertOutcome::AlreadyPresent);
}

TEST(FingerprintTable, ShardedGrowUnderSharedBudgetIsRaceFree) {
  // The parallel engine's shape, run under TSan in CI: four shard tables,
  // each filled by its own thread, on one atomic MemoryBudget, so every
  // grow's try_reserve races the other shards' charges. The shared budget
  // must end exactly balanced against the tables' books and never burst
  // its limit.
  MemoryBudget budget(160 << 10);
  constexpr int kShards = 4;
  std::vector<std::unique_ptr<Table>> shards;
  for (int s = 0; s < kShards; ++s)
    shards.push_back(std::make_unique<Table>(budget, 1024));
  std::vector<std::size_t> accepted(kShards, 0);
  std::vector<std::thread> workers;
  for (int s = 0; s < kShards; ++s)
    workers.emplace_back([&, s] {
      Table& set = *shards[static_cast<std::size_t>(s)];
      for (std::uint64_t i = 1; i <= 50000; ++i) {
        if (set.insert((i * kShards + static_cast<std::uint64_t>(s)) *
                       0x9e3779b97f4a7c15ull) == InsertOutcome::Exhausted)
          break;
        ++accepted[static_cast<std::size_t>(s)];
      }
    });
  for (auto& w : workers) w.join();
  std::size_t charged = 0, total = 0;
  for (int s = 0; s < kShards; ++s) {
    const auto& set = *shards[static_cast<std::size_t>(s)];
    EXPECT_GT(accepted[static_cast<std::size_t>(s)], 0u) << "shard " << s;
    EXPECT_EQ(set.size(), accepted[static_cast<std::size_t>(s)]);
    charged += set.charged();
    total += set.size();
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(budget.used(), charged);
  EXPECT_LE(budget.used(), budget.limit());
  // Acceptance is a membership promise: re-probes must all hit.
  for (int s = 0; s < kShards; ++s)
    for (std::uint64_t i = 1; i <= accepted[static_cast<std::size_t>(s)]; ++i)
      ASSERT_EQ(shards[static_cast<std::size_t>(s)]->insert(
                    (i * kShards + static_cast<std::uint64_t>(s)) *
                    0x9e3779b97f4a7c15ull),
                InsertOutcome::AlreadyPresent)
          << "shard " << s;
}

TEST(FingerprintTable, ConcurrentInsertsAdmitEachFingerprintOnce) {
  // Four threads insert overlapping fingerprint streams into ONE table
  // while it doubles from 64 slots to 65,536: every CAS race on a word and
  // every insert that meets a resize must still admit each distinct
  // fingerprint exactly once, and the budget must end at the table's
  // charge.
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kSpan = 10000;  // thread t: [t * kSpan / 2, + kSpan)
  MemoryBudget budget(16 << 20);
  Table set(budget, 64);
  std::vector<std::vector<std::uint64_t>> admitted(kThreads);
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Odd threads walk their span backwards, so races meet head on.
      for (std::uint64_t k = 0; k < kSpan; ++k) {
        const std::uint64_t i = t * kSpan / 2 + (t % 2 ? kSpan - 1 - k : k);
        const auto o = set.insert((i + 1) * 0x9e3779b97f4a7c15ull);
        ASSERT_NE(o, InsertOutcome::Exhausted);
        if (o == InsertOutcome::Inserted) admitted[t].push_back(i);
      }
    });
  for (auto& th : threads) th.join();
  const std::uint64_t distinct = (kThreads - 1) * kSpan / 2 + kSpan;
  std::vector<int> times(distinct, 0);
  for (const auto& a : admitted)
    for (std::uint64_t i : a) ++times[i];
  for (std::uint64_t i = 0; i < distinct; ++i)
    ASSERT_EQ(times[i], 1) << "fingerprint " << i;
  EXPECT_EQ(set.size(), distinct);
  // 25,000 fingerprints under the 70% trigger need 2^16 slots: ten
  // doublings from the 64-slot floor.
  EXPECT_GE(set.charged(), (std::size_t{64} << 10) * sizeof(std::uint64_t));
  EXPECT_EQ(budget.used(), set.charged());
}

TEST(OmissionBound, BirthdayEstimate) {
  EXPECT_EQ(verify::omission_bound(0), 0.0);
  EXPECT_EQ(verify::omission_bound(1), 0.0);
  // n=2: one pair at 2^-64.
  EXPECT_NEAR(verify::omission_bound(2), 5.42101086242752e-20, 1e-33);
  EXPECT_LT(verify::omission_bound(1000), verify::omission_bound(2000));
  // ~2^33 states drive the bound past 1; it must clamp, not overflow.
  EXPECT_EQ(verify::omission_bound(std::size_t{1} << 40), 1.0);
}

// ---- CollapsedStateSet frontier log ---------------------------------------

std::vector<std::byte> state_bytes(std::uint64_t id, std::size_t len = 24) {
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((id >> ((i % 8) * 8)) & 0xff);
  return b;
}

TEST(HashCompactWindow, FifoConsumptionReleasesBudget) {
  // Under compaction at() serves exactly the BFS cursor: reads must walk
  // the frontier log oldest first, in insertion order, and each chunk the
  // reads empty goes back to the budget. The chunk appends go to stays
  // until the BFS finds its frontier spent (resolve_pending): the log
  // never outlives the frontier. 5,000 entries of 12 + 24 bytes fill
  // three 64 KiB chunks.
  StorageOptions st;
  st.hash_compact = true;
  CollapsedStateSet set(1 << 20, st);
  constexpr std::uint64_t kStates = 5000;
  for (std::uint64_t id = 0; id < kStates; ++id) {
    auto r = set.insert(state_bytes(id));
    ASSERT_EQ(r.outcome, InsertOutcome::Inserted);
    ASSERT_EQ(r.index, id);
  }
  EXPECT_EQ(set.size(), kStates);
  EXPECT_EQ(set.insert(state_bytes(7)).outcome,
            InsertOutcome::AlreadyPresent);
  EXPECT_EQ(set.log_bytes(), 3 * verify::FrontierLog::kChunkBytes);
  const std::size_t before = set.budget().used();
  for (std::uint64_t id = 0; id < kStates; ++id) {
    auto stored = set.at(static_cast<std::uint32_t>(id));
    auto bytes = state_bytes(id);
    ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(), stored.begin(),
                           stored.end()))
        << "id " << id;
    if (id == kStates / 2) {
      EXPECT_LT(set.budget().used(), before);
    }
  }
  EXPECT_EQ(set.log_bytes(), verify::FrontierLog::kChunkBytes);
  EXPECT_EQ(set.resolve_pending(), verify::ResolveOutcome::Drained);
  EXPECT_EQ(set.log_bytes(), 0u);
  EXPECT_EQ(set.budget().used(), before - 3 * verify::FrontierLog::kChunkBytes);
  EXPECT_EQ(set.memory_used(), set.budget().used());
  // A fresh state after the drain opens a new chunk and reads back.
  ASSERT_EQ(set.insert(state_bytes(kStates)).outcome, InsertOutcome::Inserted);
  auto stored = set.at(static_cast<std::uint32_t>(kStates));
  auto bytes = state_bytes(kStates);
  EXPECT_TRUE(
      std::equal(bytes.begin(), bytes.end(), stored.begin(), stored.end()));
}

// ---- agreement with full storage across the matrix -------------------------

template <class Sys>
verify::CheckResult check(const Sys& sys, bool hc, CompressionMode compress,
                          SymmetryMode symmetry, unsigned jobs = 1) {
  verify::CheckOptions<Sys> opts;
  opts.want_trace = false;
  opts.hash_compact = hc;
  opts.compress = compress;
  opts.symmetry = symmetry;
  opts.memory_limit = 512u << 20;
  return jobs <= 1 ? verify::explore(sys, opts)
                   : verify::par_explore(sys, opts, jobs);
}

void expect_hc_agreement(const ir::Protocol& p, int n, const char* what) {
  // At these sizes the birthday bound is ~1e-14, so a 64-bit fingerprint
  // collision in-test would be a hash bug, not bad luck: counts must match
  // full storage exactly, and the run must carry the omission caveat.
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, n);
  for (unsigned jobs : {1u, 4u}) {
    for (auto sym : {SymmetryMode::Off, SymmetryMode::Canonical}) {
      auto full = check(sys, false, CompressionMode::Off, sym, jobs);
      auto hc = check(sys, true, CompressionMode::Off, sym, jobs);
      ASSERT_EQ(full.status, verify::Status::Ok) << what << " jobs=" << jobs;
      EXPECT_EQ(hc.status, full.status) << what << " jobs=" << jobs;
      EXPECT_GT(hc.omission_probability, 0.0) << what;
      EXPECT_LT(hc.omission_probability, 1e-9) << what;
      EXPECT_EQ(full.omission_probability, 0.0) << what;
      EXPECT_EQ(hc.states, full.states) << what << " jobs=" << jobs;
      EXPECT_EQ(hc.transitions, full.transitions) << what << " jobs=" << jobs;
      // The tier's point: fingerprints beat full vectors on memory.
      EXPECT_LT(hc.memory_bytes, full.memory_bytes) << what << " jobs=" << jobs;
    }
  }
}

TEST(HashCompact, AgreesMigratory) {
  expect_hc_agreement(protocols::make_migratory(), 3, "migratory");
}

TEST(HashCompact, AgreesInvalidate) {
  expect_hc_agreement(protocols::make_invalidate(), 2, "invalidate");
}

TEST(HashCompact, AgreesWriteUpdate) {
  expect_hc_agreement(protocols::make_write_update(), 2, "writeupdate");
}

TEST(HashCompact, AgreesLockServer) {
  expect_hc_agreement(protocols::make_lock_server(), 3, "lockserver");
}

TEST(HashCompact, CompressRequestIsNotedAndIgnored) {
  // Compaction stores no byte vectors, so COLLAPSE has nothing to work on;
  // asking for both must still verify but record the conflict.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  auto r = check(sys, true, CompressionMode::Collapse, SymmetryMode::Off);
  EXPECT_EQ(r.status, verify::Status::Ok);
  EXPECT_NE(r.note.find("hash"), std::string::npos) << "note: " << r.note;
}

// ---- adversarial: a colliding fingerprint must degrade loudly --------------

/// Deliberately terrible fingerprint: 64 buckets. Any non-trivial state
/// space collides immediately — the worst case the birthday bound warns
/// about, forced deterministically.
std::uint64_t folded_fingerprint(std::span<const std::byte> s) {
  return verify::default_fingerprint(s) & 0x3f;
}

TEST(HashCompact, ForcedCollisionIsReportedNotSilent) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  auto full = check(sys, false, CompressionMode::Off, SymmetryMode::Off);
  ASSERT_EQ(full.status, verify::Status::Ok);
  ASSERT_GT(full.states, 64u);

  for (unsigned jobs : {1u, 4u}) {
    verify::CheckOptions<AsyncSystem> opts;
    opts.want_trace = false;
    opts.hash_compact = true;
    opts.fingerprint = &folded_fingerprint;
    opts.memory_limit = 512u << 20;
    auto r = jobs <= 1 ? verify::explore(sys, opts)
                       : verify::par_explore(sys, opts, jobs);
    // States were omitted (64 buckets cap the count), and the result SAYS
    // so: the omission probability is reported, not buried.
    EXPECT_LE(r.states, 64u) << "jobs=" << jobs;
    EXPECT_LT(r.states, full.states) << "jobs=" << jobs;
    EXPECT_GT(r.omission_probability, 0.0) << "jobs=" << jobs;
  }
}

// ---- traces stay exact under compaction ------------------------------------

TEST(HashCompact, ViolationTraceMatchesFullStorage) {
  // Same deterministic violation as the collapse trace test: compaction
  // re-concretizes the counterexample by replaying real transitions whose
  // fingerprints match the logged chain, so the labels must be identical
  // to the full-storage trace, step for step.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::CheckResult results[2];
  int i = 0;
  for (bool hc : {false, true}) {
    verify::CheckOptions<AsyncSystem> opts;
    opts.hash_compact = hc;
    opts.want_trace = true;
    opts.invariant = [&sys](const runtime::AsyncState& s) {
      return s.remotes[0].state != sys.initial().remotes[0].state
                 ? "remote 0 left its initial state"
                 : std::string();
    };
    results[i++] = verify::explore(sys, opts);
  }
  ASSERT_EQ(results[0].status, verify::Status::InvariantViolated);
  EXPECT_EQ(results[1].status, results[0].status);
  EXPECT_EQ(results[1].violation, results[0].violation);
  ASSERT_FALSE(results[0].trace.empty());
  EXPECT_EQ(results[1].trace, results[0].trace);
}

TEST(HashCompact, ParallelViolationTraceIsValid) {
  // The parallel engine's BFS order is nondeterministic, so the trace may
  // differ from the sequential one — but it must exist, start at the
  // initial state, and end in the reported violation.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::CheckOptions<AsyncSystem> opts;
  opts.hash_compact = true;
  opts.want_trace = true;
  opts.invariant = [&sys](const runtime::AsyncState& s) {
    return s.remotes[0].state != sys.initial().remotes[0].state
               ? "remote 0 left its initial state"
               : std::string();
  };
  auto r = verify::par_explore(sys, opts, 4);
  ASSERT_EQ(r.status, verify::Status::InvariantViolated);
  EXPECT_EQ(r.violation, "remote 0 left its initial state");
  ASSERT_FALSE(r.trace.empty());
  EXPECT_NE(r.trace.front().find("initial"), std::string::npos)
      << "trace head: " << r.trace.front();
}

// ---- the payoff: compaction finishes where full storage cannot -------------

TEST(HashCompact, FinishesInsideBudgetThatWallsFullStorage) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 4);
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.detect_deadlock = false;
  opts.memory_limit = 2u << 20;
  auto walled = verify::explore(sys, opts);
  ASSERT_EQ(walled.status, verify::Status::Unfinished)
      << "wall gone — shrink the limit so the test still bites";

  verify::CheckOptions<AsyncSystem> ref_opts = opts;
  ref_opts.memory_limit = 512u << 20;
  auto reference = verify::explore(sys, ref_opts);
  ASSERT_EQ(reference.status, verify::Status::Ok);

  opts.hash_compact = true;
  auto hc = verify::explore(sys, opts);
  EXPECT_EQ(hc.status, verify::Status::Ok);
  EXPECT_EQ(hc.states, reference.states);
  EXPECT_LE(hc.memory_bytes, opts.memory_limit);

  auto par = verify::par_explore(sys, opts, 4);
  EXPECT_EQ(par.status, verify::Status::Ok);
  EXPECT_EQ(par.states, reference.states);
}

}  // namespace
}  // namespace ccref

// The lock-free building blocks under direct attack: Chase–Lev deque
// owner/thief races, CAS insert-if-absent under contention, budget
// exhaustion mid-CAS (the budget == memory_used invariant), termination
// corner cases (single-state spaces), and a jobs=max fuzz agreement run
// on all four protocols — the pieces the par/seq agreement matrices
// exercise only indirectly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "support/atomic_table.hpp"
#include "support/hash.hpp"
#include "support/thread_pool.hpp"
#include "support/work_steal_deque.hpp"
#include "verify/checker.hpp"
#include "verify/memory_budget.hpp"
#include "verify/par_checker.hpp"
#include "verify/sharded_state_set.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using sem::RendezvousSystem;
using verify::MemoryBudget;
using verify::ShardedStateSet;

std::vector<std::byte> state_bytes(std::uint64_t id, std::size_t len = 16) {
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((id >> ((i % 8) * 8)) & 0xff);
  return b;
}

// ---- Chase–Lev deque --------------------------------------------------------

TEST(WorkStealDeque, OwnerLifoThiefFifo) {
  WorkStealDeque<std::uint64_t*> dq;
  std::uint64_t vals[3] = {1, 2, 3};
  for (auto& v : vals) dq.push(&v);
  // Owner pops newest first...
  EXPECT_EQ(dq.pop(), &vals[2]);
  // ...thieves steal oldest first.
  EXPECT_EQ(dq.steal(), &vals[0]);
  EXPECT_EQ(dq.pop(), &vals[1]);
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(WorkStealDeque, GrowsPastInitialCapacity) {
  WorkStealDeque<std::uint64_t*> dq(8);
  std::vector<std::uint64_t> vals(1000);
  for (auto& v : vals) dq.push(&v);
  EXPECT_EQ(dq.size(), vals.size());
  for (std::size_t i = vals.size(); i-- > 0;) EXPECT_EQ(dq.pop(), &vals[i]);
  EXPECT_EQ(dq.pop(), nullptr);
}

/// One owner pushes/pops while thieves hammer steal(); every pushed item
/// must surface exactly once across all takers — including the frontier
/// draining DURING a steal (the owner pops the deque dry while a thief
/// holds a stale top index; the CAS arbitration must not duplicate or
/// lose the last item). `handle(i)` is what item i is pushed as and
/// `index(h)` maps a taken handle back to i.
template <class T, class Handle, class Index>
void expect_every_item_taken_once(Handle handle, Index index) {
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  WorkStealDeque<T> dq(8);
  std::vector<std::atomic<int>> taken(kItems);
  for (auto& t : taken) t.store(0);
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t)
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (T h = dq.steal()) taken[index(h)].fetch_add(1);
      }
      // Final sweep so nothing is stranded when the owner quits first.
      while (T h = dq.steal()) taken[index(h)].fetch_add(1);
    });

  // Owner: push in bursts, pop between bursts to force last-item races.
  int next = 0;
  while (next < kItems) {
    for (int burst = 0; burst < 37 && next < kItems; ++burst)
      dq.push(handle(next++));
    for (int burst = 0; burst < 19; ++burst) {
      if (T h = dq.pop())
        taken[index(h)].fetch_add(1);
      else
        break;
    }
  }
  while (T h = dq.pop()) taken[index(h)].fetch_add(1);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  for (int i = 0; i < kItems; ++i)
    ASSERT_EQ(taken[i].load(), 1) << "item " << i;
}

TEST(WorkStealDeque, EveryItemTakenExactlyOnceUnderTheft) {
  std::vector<std::uint64_t> vals(20000);
  for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = i;
  expect_every_item_taken_once<std::uint64_t*>(
      [&](int i) { return &vals[static_cast<std::size_t>(i)]; },
      [](std::uint64_t* p) { return static_cast<std::size_t>(*p); });
}

TEST(WorkStealDeque, EveryHandleTakenExactlyOnceUnderTheft) {
  // The parallel checker's deques hold integer handles (0 is the empty
  // mark), not pointers: the same stress over plain u64 values.
  expect_every_item_taken_once<std::uint64_t>(
      [](int i) { return static_cast<std::uint64_t>(i) + 1; },
      [](std::uint64_t h) { return static_cast<std::size_t>(h - 1); });
}

TEST(WorkStealDeque, RefusedGrowthFailsThePushAndBooksBalance) {
  // A charged deque holds its first ring whatever the budget says and
  // grows only as far as the budget allows; a refused growth leaves the
  // item out and the deque intact.
  verify::MemoryBudget budget(8 * 1024);
  {
    WorkStealDeque<std::uint64_t, verify::MemoryBudget> dq(64, &budget);
    EXPECT_EQ(budget.used(), 64 * sizeof(std::uint64_t));
    std::uint64_t pushed = 0;
    while (dq.push(pushed + 1)) {
      ++pushed;
      ASSERT_LT(pushed, 100000u) << "the budget never refused";
    }
    EXPECT_EQ(budget.used(), dq.charged());
    EXPECT_LE(budget.used(), budget.limit());
    EXPECT_EQ(dq.size(), pushed);
    for (std::uint64_t h = pushed; h > 0; --h) ASSERT_EQ(dq.pop(), h);
    EXPECT_EQ(dq.pop(), 0u);
  }
  EXPECT_EQ(budget.used(), 0u);  // every ring released with the deque
}

// ---- AtomicByteTable --------------------------------------------------------

TEST(AtomicByteTable, InsertLookupRoundTrip) {
  MemoryBudget budget(1 << 20);
  AtomicByteTable<MemoryBudget> table(budget, 64, 4096, RecordLink::Parent);
  auto s1 = state_bytes(1), s2 = state_bytes(2);
  auto r1 = table.insert(s1, hash_bytes(s1), 7);
  ASSERT_EQ(r1.outcome, InsertOutcome::Inserted);
  auto r2 = table.insert(s2, hash_bytes(s2), 9);
  ASSERT_EQ(r2.outcome, InsertOutcome::Inserted);
  auto dup = table.insert(s1, hash_bytes(s1), 99);
  EXPECT_EQ(dup.outcome, InsertOutcome::AlreadyPresent);
  EXPECT_EQ(dup.ref, r1.ref);
  // Duplicate insert never overwrites the recorded parent link.
  EXPECT_EQ(table.link_at(r1.ref), 7u);
  auto stored = table.at(r2.ref);
  EXPECT_TRUE(std::equal(s2.begin(), s2.end(), stored.begin(), stored.end()));
  EXPECT_EQ(table.size(), 2u);
}

TEST(AtomicByteTable, ResizesThroughManyInserts) {
  MemoryBudget budget(8 << 20);
  AtomicByteTable<MemoryBudget> table(budget, 64, 4096, RecordLink::None);
  for (std::uint64_t id = 0; id < 20000; ++id) {
    auto s = state_bytes(id);
    ASSERT_EQ(table.insert(s, hash_bytes(s)).outcome,
              InsertOutcome::Inserted);
  }
  for (std::uint64_t id = 0; id < 20000; ++id) {
    auto s = state_bytes(id);
    ASSERT_EQ(table.insert(s, hash_bytes(s)).outcome,
              InsertOutcome::AlreadyPresent);
  }
}

TEST(AtomicByteTable, ContendedInsertsDedupeExactly) {
  // All threads insert the SAME key range concurrently: exactly one
  // Inserted per key, everyone agrees on the ref, and concurrent resizes
  // lose nothing.
  constexpr std::uint64_t kUniverse = 8000;
  constexpr int kThreads = 4;
  MemoryBudget budget(16 << 20);
  AtomicByteTable<MemoryBudget> table(budget, 64, 4096, RecordLink::None);
  std::atomic<std::size_t> inserted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      std::size_t mine = 0;
      for (std::uint64_t id = 0; id < kUniverse; ++id) {
        auto s = state_bytes(id);
        auto r = table.insert(s, hash_bytes(s));
        ASSERT_NE(r.outcome, InsertOutcome::Exhausted);
        if (r.outcome == InsertOutcome::Inserted) ++mine;
      }
      inserted.fetch_add(mine);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(inserted.load(), kUniverse);
  EXPECT_EQ(table.size(), kUniverse);
}

// Concurrent writers must spread over the resize epoch's stripes, or every
// insert's two seq_cst read-modify-writes meet on one cache line. Four
// threads alive at once, each inserting, take four distinct stripes.
TEST(AtomicByteTable, ThreadsStartedTogetherTakeDistinctStripes) {
  constexpr int kThreads = 4;
  MemoryBudget budget(1 << 20);
  AtomicByteTable<MemoryBudget> table(budget, 64, 4096, RecordLink::None);
  std::latch all_alive(kThreads);
  std::vector<std::size_t> stripes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      all_alive.arrive_and_wait();
      auto s = state_bytes(static_cast<std::uint64_t>(t));
      EXPECT_EQ(table.insert(s, hash_bytes(s)).outcome,
                InsertOutcome::Inserted);
      stripes[static_cast<std::size_t>(t)] = resize_stripe();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(std::set<std::size_t>(stripes.begin(), stripes.end()).size(),
            std::size_t{kThreads});
  for (const std::size_t s : stripes) EXPECT_LT(s, kResizeStripes);
}

TEST(AtomicByteTable, BudgetEqualsChargedThroughExhaustion) {
  // The budget == memory-held invariant must hold at every step, INCLUDING
  // inserts that exhaust mid-CAS (claim made, pool refuses, claim rolled
  // back): chunks and slot arrays are charged exactly when allocated.
  MemoryBudget budget(64 << 10);
  AtomicByteTable<MemoryBudget> table(budget, 64, 1024, RecordLink::None);
  bool exhausted = false;
  for (std::uint64_t id = 0; id < 100000; ++id) {
    auto s = state_bytes(id);
    auto r = table.insert(s, hash_bytes(s));
    ASSERT_EQ(budget.used(), table.charged()) << "after id " << id;
    ASSERT_LE(budget.used(), budget.limit());
    if (r.outcome == InsertOutcome::Exhausted) {
      exhausted = true;
      break;
    }
  }
  ASSERT_TRUE(exhausted);
  // Accepted records survive a post-exhaustion dedupe sweep.
  const std::size_t n = table.size();
  EXPECT_GT(n, 100u);
  for (std::uint64_t id = 0; id < 10; ++id) {
    auto s = state_bytes(id);
    EXPECT_EQ(table.insert(s, hash_bytes(s)).outcome,
              InsertOutcome::AlreadyPresent);
  }
  EXPECT_EQ(table.size(), n);
}

TEST(AtomicByteTable, ConcurrentExhaustionKeepsBudgetExact) {
  // 4 threads race a tiny budget to exhaustion; whatever interleaving the
  // scheduler picks, charged bytes mirror the budget exactly afterwards
  // and the limit is never burst.
  constexpr int kThreads = 4;
  MemoryBudget budget(48 << 10);
  AtomicByteTable<MemoryBudget> table(budget, 64, 1024, RecordLink::None);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const std::uint64_t first = static_cast<std::uint64_t>(t) * 100000;
      for (std::uint64_t id = first; id < first + 20000; ++id) {
        auto s = state_bytes(id);
        (void)table.insert(s, hash_bytes(s));
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(budget.used(), table.charged());
  EXPECT_LE(budget.used(), budget.limit());
  EXPECT_GT(table.size(), 100u);
}

// ---- ChunkedBytePool --------------------------------------------------------

TEST(ChunkedBytePool, PartlyBackedChunksFillTheBudget) {
  // Chunk 0 (4 KB) takes 8 records; chunk 1 doubles to 8 KB, which the
  // budget can back only in part: its last 4 KB go out in halving parts of
  // chunks 1-4 (2 KB, 1 KB, 512 B, 512 B: 8 more records) until nothing is
  // left. The books balance at exhaustion.
  MemoryBudget budget(8 << 10);
  ChunkedBytePool<MemoryBudget> pool(budget, 4096);
  std::size_t accepted = 0;
  for (;; ++accepted) {
    if (pool.alloc(512) == ChunkedBytePool<MemoryBudget>::kNpos) break;
    ASSERT_LT(accepted, 10000u);
  }
  EXPECT_EQ(accepted, 16u);
  EXPECT_EQ(budget.used(), budget.limit());
  EXPECT_EQ(pool.charged(), budget.used());
  EXPECT_EQ(pool.charged(), pool.bytes_allocated() + pool.bytes_waste());
}

TEST(ChunkedBytePool, WasteStaysHonestThroughConcurrentExhaustion) {
  // Several threads bump-allocate until the budget refuses; mid-CAS losers
  // and skipped chunk tails may strand bytes, but held == handed-out +
  // waste must balance exactly, and the budget must equal the pool's
  // charge (nothing leaks, nothing is double-charged).
  MemoryBudget budget(16 << 10);
  ChunkedBytePool<MemoryBudget> pool(budget, 4096);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&pool, t] {
      // Mixed sizes force chunk-tail skips (records never straddle).
      for (int i = 0; i < 4000; ++i)
        if (pool.alloc(static_cast<std::size_t>(64 + ((t * 37 + i) % 5) *
                                                         500)) ==
            ChunkedBytePool<MemoryBudget>::kNpos)
          break;
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(pool.charged(), pool.bytes_allocated() + pool.bytes_waste());
  EXPECT_EQ(budget.used(), pool.charged());
  EXPECT_LE(budget.used(), budget.limit());
}

// ---- ShardedStateSet over the lock-free core --------------------------------

TEST(LockFreeShardedSet, CollapseConcurrentInsertsAgree) {
  // Compressed shards under concurrent insertion: the dictionaries'
  // lock-free hit path and spinlocked miss path must still produce one
  // dense index per distinct component, so the set holds exactly the
  // union afterwards.
  constexpr std::uint64_t kUniverse = 3000;
  ShardedStateSet set(8 << 20, 4, /*track_parents=*/false,
                      {.compress = verify::CompressionMode::Collapse});
  std::vector<ComponentMark> marks{{8, 0}, {16, 1}, {24, 2}};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t id = 0; id < kUniverse; ++id)
        (void)set.insert(state_bytes(id, 32), marks);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.size(), kUniverse);
  for (std::uint64_t id = 0; id < kUniverse; ++id) {
    auto s = state_bytes(id, 32);
    auto r = set.insert(s, marks);
    ASSERT_EQ(r.outcome, ShardedStateSet::Outcome::AlreadyPresent) << id;
    std::vector<std::byte> scratch;
    auto stored = set.at(r.ref, scratch);
    ASSERT_TRUE(
        std::equal(s.begin(), s.end(), stored.begin(), stored.end()));
  }
}

// ---- termination corner cases ----------------------------------------------

TEST(LockFreeParChecker, SingleStateSpaceTerminates) {
  // A root whose only successors are itself: the frontier drains after one
  // expansion and every idle worker must observe in_flight == 0 and exit —
  // with many more workers than work, this is the pure termination-detector
  // path.
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 1);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.want_trace = false;
  auto seq = verify::explore(sys, opts);
  for (unsigned jobs : {1u, 8u}) {
    auto par = verify::par_explore(sys, opts, jobs);
    EXPECT_EQ(par.status, seq.status) << "jobs=" << jobs;
    EXPECT_EQ(par.states, seq.states) << "jobs=" << jobs;
    EXPECT_EQ(par.transitions, seq.transitions) << "jobs=" << jobs;
  }
}

TEST(LockFreeParChecker, ViolationOnRootWithManyIdleWorkers) {
  // The root violates: no item is ever pushed, workers must all exit via
  // the stop flag / zero counter without touching a frontier.
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 1);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.invariant = [](const sem::RvState&) { return "always broken"; };
  auto par = verify::par_explore(sys, opts, 8);
  EXPECT_EQ(par.status, verify::Status::InvariantViolated);
  EXPECT_EQ(par.states, 1u);
}

TEST(LockFreeParChecker, ExhaustionRaceStillBoundsMemory) {
  // Many workers race one tiny budget; the run must end (no lost
  // decrement deadlock), report Unfinished, and never burst the limit.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 4);
  verify::CheckOptions<AsyncSystem> opts;
  opts.memory_limit = 1u << 20;
  opts.want_trace = false;
  auto par = verify::par_explore(sys, opts, 8);
  EXPECT_EQ(par.status, verify::Status::Unfinished);
  EXPECT_GT(par.states, 0u);
  EXPECT_LE(par.memory_bytes, opts.memory_limit);
}

// ---- jobs=max fuzz: all four protocols, symmetry x compression -------------

TEST(LockFreeParChecker, JobsMaxFuzzAgreementAllProtocols) {
  const unsigned jobs = std::max(2u, ThreadPool::default_concurrency());
  const ir::Protocol protos[] = {
      protocols::make_migratory(), protocols::make_invalidate(),
      protocols::make_write_update(), protocols::make_lock_server()};
  for (const auto& p : protos) {
    auto rp = refine::refine(p);
    AsyncSystem sys(rp, 2);
    for (auto compress :
         {verify::CompressionMode::Off, verify::CompressionMode::Collapse}) {
      verify::CheckOptions<AsyncSystem> opts;
      opts.want_trace = false;
      opts.compress = compress;
      opts.symmetry = verify::SymmetryMode::Canonical;
      auto seq = verify::explore(sys, opts);
      auto par = verify::par_explore(sys, opts, jobs);
      ASSERT_EQ(par.status, seq.status)
          << p.name << " compress=" << static_cast<int>(compress);
      if (seq.status == verify::Status::Ok) {
        ASSERT_EQ(par.states, seq.states) << p.name;
        ASSERT_EQ(par.transitions, seq.transitions) << p.name;
      }
    }
  }
}

}  // namespace
}  // namespace ccref

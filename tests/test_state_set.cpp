// StateSet / ShardedStateSet edge cases: rollback-on-Exhausted during table
// growth, slot-collision lookups, and the memory-accounting invariant
// (memory_used() never exceeds the limit after any insert sequence).
#include <gtest/gtest.h>

#include <thread>

#include "support/rng.hpp"
#include "verify/sharded_state_set.hpp"
#include "verify/state_set.hpp"

namespace ccref {
namespace {

using verify::ShardedStateSet;
using verify::StateSet;

std::vector<std::byte> state_bytes(std::uint64_t id, std::size_t len = 16) {
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((id >> ((i % 8) * 8)) & 0xff);
  return b;
}

TEST(StateSet, ExhaustionLeavesSetConsistent) {
  // Small budget, 16-byte states: inserts fail eventually, possibly inside
  // grow(). Afterwards every accepted state must still be present at its
  // original index and the rejected one must NOT be resident.
  StateSet set(24 << 10);
  std::vector<std::uint64_t> accepted;
  std::uint64_t id = 0;
  for (;; ++id) {
    auto r = set.insert(state_bytes(id));
    if (r.outcome == StateSet::Outcome::Exhausted) break;
    ASSERT_EQ(r.outcome, StateSet::Outcome::Inserted);
    ASSERT_EQ(r.index, accepted.size());
    accepted.push_back(id);
    ASSERT_LT(id, 100000u) << "limit never hit";
  }
  EXPECT_GT(accepted.size(), 100u);
  EXPECT_LE(set.memory_used(), set.memory_limit());
  EXPECT_EQ(set.size(), accepted.size());

  // The rejected state was rolled back: a retry reports exhaustion again
  // (it would have to be re-added), never AlreadyPresent.
  auto retry = set.insert(state_bytes(id));
  EXPECT_EQ(retry.outcome, StateSet::Outcome::Exhausted);

  for (std::size_t i = 0; i < accepted.size(); ++i) {
    auto bytes = state_bytes(accepted[i]);
    auto r = set.insert(bytes);
    ASSERT_EQ(r.outcome, StateSet::Outcome::AlreadyPresent);
    ASSERT_EQ(r.index, i);
    auto stored = set.at(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(), stored.begin(),
                           stored.end()));
  }
}

TEST(StateSet, GrowthRollbackOnTableBudget) {
  // Budget sized so the initial 1024-slot table (4 KB) plus ~717 tiny
  // entries fit, but the 8 KB grown table does not: the insert that trips
  // the 0.7 load factor must be rolled back.
  //
  // Footprint at the trip point with 8-byte states: pool 8*718≈5.7 KB
  // (capacity 8 KB), entries 24*718≈17 KB (capacity 24 KB), table 4 KB.
  // Pick the limit just above that but below the +8 KB grow.
  StateSet set(37 << 10);
  std::size_t inserted = 0;
  for (std::uint64_t id = 0;; ++id) {
    auto r = set.insert(state_bytes(id, 8));
    if (r.outcome == StateSet::Outcome::Exhausted) break;
    ++inserted;
    ASSERT_LT(id, 10000u);
  }
  EXPECT_GT(inserted, 0u);
  EXPECT_LE(set.memory_used(), set.memory_limit());
  EXPECT_EQ(set.size(), inserted);
  // All survivors still resolve.
  for (std::uint64_t id = 0; id < inserted; ++id) {
    auto r = set.insert(state_bytes(id, 8));
    ASSERT_EQ(r.outcome, StateSet::Outcome::AlreadyPresent);
  }
}

TEST(StateSet, CollidingSlotsResolveToDistinctStates) {
  // Find states whose hashes collide in the initial 1024-slot table; open
  // addressing must keep them distinct and retrievable.
  auto base = state_bytes(1);
  std::uint64_t h0 = hash_bytes(base) & 1023;
  std::vector<std::uint64_t> colliders;
  for (std::uint64_t id = 2; colliders.size() < 3; ++id) {
    if ((hash_bytes(state_bytes(id)) & 1023) == h0) colliders.push_back(id);
    ASSERT_LT(id, 1000000u);
  }
  StateSet set(1 << 20);
  auto r0 = set.insert(base);
  ASSERT_EQ(r0.outcome, StateSet::Outcome::Inserted);
  std::vector<std::uint32_t> idx;
  for (std::uint64_t id : colliders) {
    auto r = set.insert(state_bytes(id));
    ASSERT_EQ(r.outcome, StateSet::Outcome::Inserted);
    idx.push_back(r.index);
  }
  // Lookups traverse the probe chain to the right entry.
  EXPECT_EQ(set.insert(base).outcome, StateSet::Outcome::AlreadyPresent);
  for (std::size_t i = 0; i < colliders.size(); ++i) {
    auto r = set.insert(state_bytes(colliders[i]));
    EXPECT_EQ(r.outcome, StateSet::Outcome::AlreadyPresent);
    EXPECT_EQ(r.index, idx[i]);
  }
}

TEST(StateSet, MemoryNeverExceedsLimitUnderRandomInserts) {
  Rng rng(7);
  for (std::size_t limit : {8u << 10, 64u << 10, 256u << 10}) {
    StateSet set(limit);
    for (int step = 0; step < 20000; ++step) {
      std::size_t len = 1 + rng.below(64);
      auto r = set.insert(state_bytes(rng.next(), len));
      ASSERT_LE(set.memory_used(), limit) << "after step " << step;
      if (r.outcome == StateSet::Outcome::Exhausted && rng.below(4) == 0)
        break;  // keep hammering a full set most of the time
    }
  }
}

// ---- expected-states hint ----------------------------------------------------

TEST(StateSet, ExpectedStatesHintPreChargesTable) {
  // expected=100000 at the 0.7 load factor needs 262144 slots; the charge
  // lands at construction, before any insert.
  StateSet hinted(64u << 20, /*expected_states=*/100000);
  StateSet plain(64u << 20);
  EXPECT_GE(hinted.memory_used(), 262144 * sizeof(std::uint32_t));
  EXPECT_GT(hinted.memory_used(), plain.memory_used());
  EXPECT_EQ(hinted.budget().used(), hinted.memory_used());

  // The hint is invisible to semantics: same inserts, same indices.
  for (std::uint64_t id = 0; id < 2000; ++id) {
    auto a = hinted.insert(state_bytes(id));
    auto b = plain.insert(state_bytes(id));
    ASSERT_EQ(a.outcome, StateSet::Outcome::Inserted);
    ASSERT_EQ(b.outcome, StateSet::Outcome::Inserted);
    ASSERT_EQ(a.index, b.index);
  }
}

TEST(StateSet, OversizedHintClampsToHalfBudget) {
  // A wild hint must degrade into ordinary growth, not eat the whole budget
  // (or overflow): the pre-charge is capped at limit/2.
  StateSet set(64u << 10, /*expected_states=*/10'000'000);
  EXPECT_LE(set.memory_used(), set.memory_limit() / 2);
  std::size_t inserted = 0;
  for (std::uint64_t id = 0;; ++id) {
    auto r = set.insert(state_bytes(id));
    if (r.outcome == StateSet::Outcome::Exhausted) break;
    ++inserted;
    ASSERT_LE(set.memory_used(), set.memory_limit());
    ASSERT_LT(id, 100000u);
  }
  EXPECT_GT(inserted, 100u);
}

// ---- budget accounting -------------------------------------------------------
// After any insert outcome, including rollback on exhaustion, the bytes
// charged to the budget equal the bytes the set actually holds.

TEST(StateSet, BudgetMatchesUsageThroughExhaustion) {
  // Regression for the reservation leak: the admission check used to keep
  // its projected reservation when the insert was rejected, so repeated
  // rejected inserts inflated budget().used() past memory_used() and
  // starved sibling shards. The invariant now holds after every outcome.
  verify::StateSet set(24 << 10);
  std::uint64_t id = 0;
  auto bytes = [](std::uint64_t v) {
    std::vector<std::byte> b(16);
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = static_cast<std::byte>((v >> ((i % 8) * 8)) & 0xff);
    return b;
  };
  for (;; ++id) {
    auto r = set.insert(bytes(id));
    ASSERT_EQ(set.budget().used(), set.memory_used()) << "after id " << id;
    if (r.outcome == verify::StateSet::Outcome::Exhausted) break;
    ASSERT_LT(id, 100000u);
  }
  // The leak showed up on *repeated* exhaustion: each rejected insert left
  // its projected bytes reserved. Hammer the full set and re-check.
  for (int k = 0; k < 100; ++k) {
    auto r = set.insert(bytes(id + 1 + static_cast<std::uint64_t>(k)));
    EXPECT_EQ(r.outcome, verify::StateSet::Outcome::Exhausted);
    ASSERT_EQ(set.budget().used(), set.memory_used()) << "retry " << k;
  }
  // Lookups of resident states keep the invariant too.
  auto hit = set.insert(bytes(0));
  EXPECT_EQ(hit.outcome, verify::StateSet::Outcome::AlreadyPresent);
  EXPECT_EQ(set.budget().used(), set.memory_used());
}

TEST(StateSet, SharedBudgetShardsStayReconciled) {
  // Two shards on one budget: after one shard exhausts the pool, the
  // budget's used() must equal the sum of what the shards actually hold —
  // otherwise the sibling is starved by phantom charges.
  verify::MemoryBudget budget(24 << 10);
  verify::StateSet a(budget);
  verify::StateSet b(budget);
  auto bytes = [](std::uint64_t v, std::byte tag) {
    std::vector<std::byte> out(16, tag);
    for (std::size_t i = 0; i < 8; ++i)
      out[i] = static_cast<std::byte>((v >> (i * 8)) & 0xff);
    return out;
  };
  std::uint64_t id = 0;
  while (true) {
    auto r = a.insert(bytes(id++, std::byte{0xaa}));
    ASSERT_EQ(budget.used(), a.memory_used() + b.memory_used());
    if (r.outcome == verify::StateSet::Outcome::Exhausted) break;
    ASSERT_LT(id, 100000u);
  }
  for (int k = 0; k < 50; ++k) {
    (void)a.insert(bytes(id + static_cast<std::uint64_t>(k), std::byte{0xaa}));
    (void)b.insert(bytes(static_cast<std::uint64_t>(k), std::byte{0xbb}));
    ASSERT_EQ(budget.used(), a.memory_used() + b.memory_used())
        << "retry " << k;
  }
}

TEST(ShardedStateSet, ExpectedStatesHintSplitsAcrossShards) {
  // The aggregate hint is divided per shard; each shard's pre-sized table is
  // charged against the one shared budget up front.
  ShardedStateSet hinted(8u << 20, 4, /*track_parents=*/false,
                         {.expected_states = 7000});
  ShardedStateSet plain(8u << 20, 4);
  // 7000/4 = 1750 expected per shard -> 4096 slots each (vs. 1024 default).
  EXPECT_GE(hinted.memory_used(), 4 * 4096 * sizeof(std::uint32_t));
  EXPECT_GT(hinted.memory_used(), plain.memory_used());
  for (std::uint64_t id = 0; id < 7000; ++id) {
    auto a = hinted.insert(state_bytes(id));
    auto b = plain.insert(state_bytes(id));
    ASSERT_EQ(a.outcome, ShardedStateSet::Outcome::Inserted);
    ASSERT_EQ(b.outcome, ShardedStateSet::Outcome::Inserted);
    ASSERT_EQ(a.ref, b.ref);
  }
  EXPECT_EQ(hinted.size(), 7000u);
}

// ---- the same discipline for the sharded set --------------------------------

TEST(ShardedStateSet, InsertDedupAndRefs) {
  ShardedStateSet set(1 << 20, 8);
  auto a = set.insert(state_bytes(1));
  auto b = set.insert(state_bytes(2));
  ASSERT_EQ(a.outcome, ShardedStateSet::Outcome::Inserted);
  ASSERT_EQ(b.outcome, ShardedStateSet::Outcome::Inserted);
  auto a2 = set.insert(state_bytes(1));
  EXPECT_EQ(a2.outcome, ShardedStateSet::Outcome::AlreadyPresent);
  EXPECT_EQ(a2.ref, a.ref);
  EXPECT_EQ(set.size(), 2u);
  auto bytes = state_bytes(2);
  auto stored = set.at(b.ref);
  EXPECT_TRUE(
      std::equal(bytes.begin(), bytes.end(), stored.begin(), stored.end()));
}

TEST(ShardedStateSet, ExhaustionLeavesAllShardsConsistent) {
  ShardedStateSet set(64 << 10, 4);
  std::vector<std::pair<std::uint64_t, ShardedStateSet::Ref>> accepted;
  std::uint64_t id = 0;
  for (;; ++id) {
    auto r = set.insert(state_bytes(id));
    if (r.outcome == ShardedStateSet::Outcome::Exhausted) break;
    ASSERT_EQ(r.outcome, ShardedStateSet::Outcome::Inserted);
    accepted.push_back({id, r.ref});
    ASSERT_LT(id, 100000u);
  }
  EXPECT_GT(accepted.size(), 100u);
  EXPECT_LE(set.memory_used(), set.memory_limit());
  EXPECT_EQ(set.size(), accepted.size());
  for (auto& [sid, ref] : accepted) {
    auto r = set.insert(state_bytes(sid));
    ASSERT_EQ(r.outcome, ShardedStateSet::Outcome::AlreadyPresent);
    ASSERT_EQ(r.ref, ref);
  }
}

TEST(ShardedStateSet, MemoryNeverExceedsLimitUnderRandomInserts) {
  Rng rng(11);
  ShardedStateSet set(128 << 10, 16);
  for (int step = 0; step < 20000; ++step) {
    std::size_t len = 1 + rng.below(64);
    (void)set.insert(state_bytes(rng.next(), len));
    ASSERT_LE(set.memory_used(), set.memory_limit()) << "after step " << step;
  }
}

TEST(ShardedStateSet, ParentTracking) {
  ShardedStateSet set(1 << 20, 4, /*track_parents=*/true);
  auto root = set.insert(state_bytes(100));
  ASSERT_EQ(root.outcome, ShardedStateSet::Outcome::Inserted);
  EXPECT_EQ(set.parent_of(root.ref), ShardedStateSet::kNoParent);
  auto child =
      set.insert(state_bytes(101), {}, ShardedStateSet::pack(root.ref));
  ASSERT_EQ(child.outcome, ShardedStateSet::Outcome::Inserted);
  EXPECT_EQ(ShardedStateSet::unpack(set.parent_of(child.ref)), root.ref);
  // A duplicate insert must NOT overwrite the recorded parent.
  auto dup = set.insert(state_bytes(101), {}, ShardedStateSet::kNoParent);
  EXPECT_EQ(dup.outcome, ShardedStateSet::Outcome::AlreadyPresent);
  EXPECT_EQ(ShardedStateSet::unpack(set.parent_of(child.ref)), root.ref);
}

TEST(ShardedStateSet, ConcurrentInsertsAgreeWithSequential) {
  // 4 threads insert overlapping ranges; afterwards the set must hold
  // exactly the union, each state resolvable to a stable ref.
  constexpr std::uint64_t kUniverse = 4000;
  ShardedStateSet set(8 << 20, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&set, t] {
      // Each thread covers 2/4 of the universe, offset by its id.
      for (std::uint64_t id = 0; id < kUniverse; ++id)
        if ((id / (kUniverse / 4)) % 4 == static_cast<std::uint64_t>(t) ||
            (id / (kUniverse / 4) + 1) % 4 == static_cast<std::uint64_t>(t))
          (void)set.insert(state_bytes(id));
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.size(), kUniverse);
  for (std::uint64_t id = 0; id < kUniverse; ++id) {
    auto r = set.insert(state_bytes(id));
    ASSERT_EQ(r.outcome, ShardedStateSet::Outcome::AlreadyPresent) << id;
  }
}

}  // namespace
}  // namespace ccref

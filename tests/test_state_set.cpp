// Edge cases of the visited-set tables behind both engines (the record
// table, and hash compaction's fingerprint table): the sequential
// CollapsedStateSet (table plus insertion-order index) and the sharded
// parallel set — exhaustion and refused growth,
// slot-collision lookups, resizes under colliding hashes, BFS parents
// kept inside the budget, and the memory-accounting invariant
// (memory_used() never exceeds the limit and equals what the budget
// charged, after any insert sequence).
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "support/rng.hpp"
#include "verify/collapse.hpp"
#include "verify/sharded_state_set.hpp"

namespace ccref {
namespace {

using verify::CollapsedStateSet;
using verify::RecordTable;
using verify::TableLayout;
using verify::ShardedStateSet;

std::vector<std::byte> state_bytes(std::uint64_t id, std::size_t len = 16) {
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((id >> ((i % 8) * 8)) & 0xff);
  return b;
}

// ---- the sequential set -----------------------------------------------------

TEST(StateSet, ExhaustionLeavesSetConsistent) {
  // Small budget, 16-byte states: inserts fail eventually, possibly while
  // the table grows. Afterwards every accepted state must still be present
  // at its original index and the rejected one must NOT be resident.
  CollapsedStateSet set(24 << 10);
  std::vector<std::uint64_t> accepted;
  std::uint64_t id = 0;
  for (;; ++id) {
    auto r = set.insert(state_bytes(id));
    if (r.outcome == InsertOutcome::Exhausted) break;
    ASSERT_EQ(r.outcome, InsertOutcome::Inserted);
    ASSERT_EQ(r.index, accepted.size());
    accepted.push_back(id);
    ASSERT_LT(id, 100000u) << "limit never hit";
  }
  EXPECT_GT(accepted.size(), 100u);
  EXPECT_LE(set.memory_used(), set.memory_limit());
  EXPECT_EQ(set.size(), accepted.size());

  // The rejected state's claim was rolled back: a retry reports exhaustion
  // again (it would have to be re-added), never AlreadyPresent.
  auto retry = set.insert(state_bytes(id));
  EXPECT_EQ(retry.outcome, InsertOutcome::Exhausted);

  for (std::size_t i = 0; i < accepted.size(); ++i) {
    auto bytes = state_bytes(accepted[i]);
    auto r = set.insert(bytes);
    ASSERT_EQ(r.outcome, InsertOutcome::AlreadyPresent);
    ASSERT_EQ(r.index, i);
    auto stored = set.at(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(), stored.begin(),
                           stored.end()));
  }
}

TEST(StateSet, GrowthRollbackOnTableBudget) {
  // Budget sized so the initial 1024-slot table (8 KB) and the records of
  // its first 718 states fit, but the doubled 16 KB array does not: the
  // insert that trips the 0.7 load factor is kept, the refused growth
  // leaves the old array in place, and later fresh states are refused
  // (pool or 90% slot cap) without leaving a half-made record behind.
  //
  // Footprint at the trip point with 8-byte states: records (4 B index +
  // 4 B length + 8 B) 16*718≈11.5 KB in 4+8 KB pool chunks, order index
  // 960 entries (3.75 KB), slots 8 KB — 23.75 KB; +16 KB is over 36 KB.
  CollapsedStateSet set(36 << 10);
  std::size_t inserted = 0;
  for (std::uint64_t id = 0;; ++id) {
    auto r = set.insert(state_bytes(id, 8));
    if (r.outcome == InsertOutcome::Exhausted) break;
    ++inserted;
    ASSERT_LT(id, 10000u);
  }
  EXPECT_GT(inserted, 717u);  // past the growth trigger of 1024 slots
  EXPECT_LE(inserted, 921u);  // within the hard cap of the same slots
  EXPECT_LE(set.memory_used(), set.memory_limit());
  EXPECT_EQ(set.budget().used(), set.memory_used());
  EXPECT_EQ(set.size(), inserted);
  // All survivors still resolve.
  for (std::uint64_t id = 0; id < inserted; ++id) {
    auto r = set.insert(state_bytes(id, 8));
    ASSERT_EQ(r.outcome, InsertOutcome::AlreadyPresent);
    ASSERT_EQ(r.index, id);
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
  CollapsedStateSet set(1 << 20);
  auto r0 = set.insert(base);
  ASSERT_EQ(r0.outcome, InsertOutcome::Inserted);
  std::vector<std::uint32_t> idx;
  for (std::uint64_t id : colliders) {
    auto r = set.insert(state_bytes(id));
    ASSERT_EQ(r.outcome, InsertOutcome::Inserted);
    idx.push_back(r.index);
  }
  // Lookups traverse the probe chain to the right entry.
  EXPECT_EQ(set.insert(base).outcome, InsertOutcome::AlreadyPresent);
  for (std::size_t i = 0; i < colliders.size(); ++i) {
    auto r = set.insert(state_bytes(colliders[i]));
    EXPECT_EQ(r.outcome, InsertOutcome::AlreadyPresent);
    EXPECT_EQ(r.index, idx[i]);
  }
}

TEST(StateSet, MemoryNeverExceedsLimitUnderRandomInserts) {
  Rng rng(7);
  for (std::size_t limit : {8u << 10, 64u << 10, 256u << 10}) {
    CollapsedStateSet set(limit);
    for (int step = 0; step < 20000; ++step) {
      std::size_t len = 1 + rng.below(64);
      auto r = set.insert(state_bytes(rng.next(), len));
      ASSERT_LE(set.memory_used(), limit) << "after step " << step;
      if (r.outcome == InsertOutcome::Exhausted && rng.below(4) == 0)
        break;  // keep hammering a full set most of the time
    }
  }
}

TEST(StateSet, SmallBudgetStoresStatesWithinLimit) {
  // A 64 KB set still leaves room for states after its floors, and never
  // passes its limit on the way to exhaustion.
  CollapsedStateSet set(64u << 10);
  std::size_t inserted = 0;
  for (std::uint64_t id = 0;; ++id) {
    auto r = set.insert(state_bytes(id));
    if (r.outcome == InsertOutcome::Exhausted) break;
    ++inserted;
    ASSERT_LE(set.memory_used(), set.memory_limit());
    ASSERT_LT(id, 100000u);
  }
  EXPECT_GT(inserted, 100u);
}

TEST(StateSet, ParentsChargedOnlyWhenTracked) {
  // A set that tracks parents keeps each fresh state's parent in a
  // budget-charged array, the first one named; an untraced set keeps none.
  // Full storage and hash compaction (with its fingerprint log), one
  // insert stream each.
  constexpr std::uint32_t kStates = 5000;
  // The parents' chunks: 64 << k u32 entries each, until they cover
  // kStates.
  std::size_t parent_bytes = 0;
  for (std::size_t k = 0, held = 0; held < kStates; ++k) {
    held += std::size_t{64} << k;
    parent_bytes += (std::size_t{64} << k) * sizeof(std::uint32_t);
  }
  for (bool compact : {false, true}) {
    const verify::StorageOptions st{.hash_compact = compact,
                                    .keep_fingerprints = compact};
    CollapsedStateSet traced(8u << 20, st, /*track_parents=*/true);
    CollapsedStateSet untraced(8u << 20, st);
    for (std::uint32_t i = 0; i < kStates; ++i) {
      const auto parent = i == 0 ? CollapsedStateSet::kNoParent : i / 2;
      ASSERT_EQ(traced.insert(state_bytes(i), {}, parent).outcome,
                InsertOutcome::Inserted);
      ASSERT_EQ(untraced.insert(state_bytes(i), {}, parent).outcome,
                InsertOutcome::Inserted);
      ASSERT_EQ(traced.insert(state_bytes(i), {}, 0).outcome,
                InsertOutcome::AlreadyPresent);
    }
    EXPECT_EQ(traced.memory_used(), traced.budget().used()) << compact;
    EXPECT_EQ(untraced.memory_used(), untraced.budget().used()) << compact;
    EXPECT_EQ(traced.memory_used() - untraced.memory_used(), parent_bytes)
        << compact;
    EXPECT_EQ(traced.parent_of(0), std::nullopt);
    for (std::uint32_t i = 1; i < kStates; ++i)
      ASSERT_EQ(traced.parent_of(i), i / 2) << compact;
    if (!compact) continue;
    for (std::uint32_t i = 0; i < kStates; ++i)
      ASSERT_EQ(traced.fingerprint_of(i),
                verify::default_fingerprint(state_bytes(i)));
  }
}

// ---- budget accounting -------------------------------------------------------
// After any insert outcome, including a claim rolled back on exhaustion,
// the bytes charged to the budget equal the bytes the set actually holds.

TEST(StateSet, BudgetMatchesUsageThroughExhaustion) {
  // Regression for a reservation leak: an admission check that kept its
  // projected reservation when the insert was rejected let repeated
  // rejected inserts inflate budget().used() past memory_used() and
  // starve sibling shards. The invariant holds after every outcome.
  CollapsedStateSet set(24 << 10);
  std::uint64_t id = 0;
  for (;; ++id) {
    auto r = set.insert(state_bytes(id));
    ASSERT_EQ(set.budget().used(), set.memory_used()) << "after id " << id;
    if (r.outcome == InsertOutcome::Exhausted) break;
    ASSERT_LT(id, 100000u);
  }
  // The leak showed up on *repeated* exhaustion: each rejected insert left
  // its projected bytes reserved. Hammer the full set and re-check.
  for (int k = 0; k < 100; ++k) {
    auto r = set.insert(state_bytes(id + 1 + static_cast<std::uint64_t>(k)));
    EXPECT_EQ(r.outcome, InsertOutcome::Exhausted);
    ASSERT_EQ(set.budget().used(), set.memory_used()) << "retry " << k;
  }
  // Lookups of resident states keep the invariant too.
  auto hit = set.insert(state_bytes(0));
  EXPECT_EQ(hit.outcome, InsertOutcome::AlreadyPresent);
  EXPECT_EQ(set.budget().used(), set.memory_used());
}

TEST(StateSet, SharedBudgetShardsStayReconciled) {
  // Two tables on one budget: after one exhausts it, the budget's used()
  // must equal the sum of what the tables actually hold — otherwise the
  // sibling is starved by phantom charges.
  verify::MemoryBudget budget(24 << 10);
  const auto layout = TableLayout::fit(24 << 10, 2);
  RecordTable a(budget, layout.slots, layout.chunk0, RecordLink::None);
  RecordTable b(budget, layout.slots, layout.chunk0, RecordLink::None);
  auto bytes = [](std::uint64_t v, std::byte tag) {
    std::vector<std::byte> out(16, tag);
    for (std::size_t i = 0; i < 8; ++i)
      out[i] = static_cast<std::byte>((v >> (i * 8)) & 0xff);
    return out;
  };
  auto insert = [](RecordTable& set, std::vector<std::byte> s) {
    return set.insert(s, hash_bytes(s), 0).outcome;
  };
  std::uint64_t id = 0;
  while (true) {
    auto r = insert(a, bytes(id++, std::byte{0xaa}));
    ASSERT_EQ(budget.used(), a.charged() + b.charged());
    if (r == InsertOutcome::Exhausted) break;
    ASSERT_LT(id, 100000u);
  }
  for (int k = 0; k < 50; ++k) {
    (void)insert(a, bytes(id + static_cast<std::uint64_t>(k), std::byte{0xaa}));
    (void)insert(b, bytes(static_cast<std::uint64_t>(k), std::byte{0xbb}));
    ASSERT_EQ(budget.used(), a.charged() + b.charged()) << "retry " << k;
  }
}

// ---- resizes under colliding hashes ----------------------------------------

// A stub FingerprintFn whose values often agree in their low 31 bits —
// the bits a slot word keeps, which place a record and filter its probes —
// while the full values still differ: lookups must fall through to the
// record comparison, and resizes must re-place records from the slot
// words alone.
std::uint64_t colliding_fingerprint(std::span<const std::byte> bytes) {
  return hash_bytes(bytes) & ~std::uint64_t{0x7fff0000};
}

TEST(OneTable, TenResizesKeepPayloadAndFingerprintRecords) {
  Rng rng(20261018);
  std::set<std::uint64_t> ids;
  std::vector<std::vector<std::byte>> keys;
  while (keys.size() < 30000) {
    const std::uint64_t id = rng.next();
    if (ids.insert(id).second)
      keys.push_back(state_bytes(id, 8 + rng.below(33)));
  }
  // Tag collisions happen: many key pairs share their low 31 hash bits.
  std::set<std::uint64_t> tags;
  for (const auto& k : keys) tags.insert(colliding_fingerprint(k) & 0x7fffffff);
  ASSERT_LT(tags.size() + 1000, keys.size());

  // Payload records: the record table carries the key bytes. It starts at
  // 64 slots, and 30,000 records cannot fit under the 90% cap of 32,768
  // slots, so it has doubled at least ten times by the end.
  {
    verify::MemoryBudget budget(64 << 20);
    RecordTable set(budget, 64, 4096, RecordLink::Parent);
    std::vector<std::uint32_t> refs;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      auto r = set.insert(keys[i], colliding_fingerprint(keys[i]), i);
      ASSERT_EQ(r.outcome, InsertOutcome::Inserted) << i;
      refs.push_back(r.ref);
    }
    EXPECT_EQ(set.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      auto r = set.insert(keys[i], colliding_fingerprint(keys[i]), 0);
      ASSERT_EQ(r.outcome, InsertOutcome::AlreadyPresent) << i;
      ASSERT_EQ(r.ref, refs[i]);
      ASSERT_EQ(set.link_at(r.ref), i);  // never overwritten by a duplicate
      auto stored = set.at(r.ref);
      ASSERT_TRUE(std::equal(keys[i].begin(), keys[i].end(), stored.begin(),
                             stored.end()));
    }
    EXPECT_EQ(budget.used(), set.charged());
  }
  // Fingerprints: the hash-compaction table's words are the fingerprints
  // themselves, re-placed from the word alone on each of the same ten
  // doublings; every one must still answer as present.
  {
    verify::MemoryBudget budget(64 << 20);
    FingerprintTable<verify::MemoryBudget> set(budget, 64);
    for (std::size_t i = 0; i < keys.size(); ++i)
      ASSERT_EQ(set.insert(colliding_fingerprint(keys[i])),
                InsertOutcome::Inserted)
          << i;
    EXPECT_EQ(set.size(), keys.size());
    EXPECT_GE(set.charged(), (std::size_t{64} << 10) * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < keys.size(); ++i)
      ASSERT_EQ(set.insert(colliding_fingerprint(keys[i])),
                InsertOutcome::AlreadyPresent)
          << i;
    EXPECT_EQ(budget.used(), set.charged());
  }
}

// ---- the sharded set -------------------------------------------------------

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
  std::vector<std::byte> scratch;
  auto stored = set.at(b.ref, scratch);
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
  EXPECT_EQ(set.parent_of(root.ref), std::nullopt);
  auto child =
      set.insert(state_bytes(101), {}, ShardedStateSet::pack(root.ref));
  ASSERT_EQ(child.outcome, ShardedStateSet::Outcome::Inserted);
  EXPECT_EQ(set.parent_of(child.ref), root.ref);
  // A duplicate insert must NOT overwrite the recorded parent.
  auto dup = set.insert(state_bytes(101), {}, ShardedStateSet::kNoParent);
  EXPECT_EQ(dup.outcome, ShardedStateSet::Outcome::AlreadyPresent);
  EXPECT_EQ(set.parent_of(child.ref), root.ref);
}

TEST(ShardedStateSet, WritersPastTheShardCapKeepTheirOwnBooks) {
  // Shards stop at 256, but every worker is a writer: a set built for 300
  // workers must take inserts from writers 256..299 in every tier, and
  // under hash compaction give them their own (writer, n) Refs, parents
  // and fingerprints.
  constexpr unsigned kWorkers = 300;
  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "hash compaction" : "full storage");
    verify::StorageOptions st;
    st.hash_compact = compact;
    st.keep_fingerprints = compact;
    ShardedStateSet set(8 << 20, kWorkers, /*track_parents=*/true, st);
    EXPECT_EQ(set.shard_count(), 256u);
    EXPECT_EQ(set.writer_count(), kWorkers);
    std::uint64_t parent = ShardedStateSet::kNoParent;
    std::vector<ShardedStateSet::Ref> refs;
    std::size_t raw = 0;
    for (unsigned writer = 0; writer < kWorkers; ++writer) {
      const auto bytes = state_bytes(writer, 8 + writer % 16);
      const auto r = set.insert(bytes, {}, parent, {}, nullptr, writer);
      ASSERT_EQ(r.outcome, ShardedStateSet::Outcome::Inserted) << writer;
      if (compact) {
        EXPECT_EQ(r.ref.shard, writer);
        EXPECT_EQ(r.ref.index, 0u);
        EXPECT_EQ(set.fingerprint_of(r.ref),
                  set.fingerprint_fn()(std::span<const std::byte>(bytes)));
      }
      raw += bytes.size();
      refs.push_back(r.ref);
      parent = ShardedStateSet::pack(r.ref);
    }
    EXPECT_EQ(set.size(), kWorkers);
    EXPECT_EQ(set.raw_bytes(), raw);
    EXPECT_EQ(set.parent_of(refs[0]), std::nullopt);
    for (unsigned writer = 1; writer < kWorkers; ++writer)
      ASSERT_EQ(set.parent_of(refs[writer]), refs[writer - 1]) << writer;
    EXPECT_EQ(set.memory_used(), set.charged());
  }
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

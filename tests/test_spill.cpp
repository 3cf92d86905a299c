// mmap-backed spill tier (support/spill.hpp): SpillArena lifecycle and
// caps, ChunkedBytePool chunk routing past the RAM watermark, the
// budget == memory_used honesty invariant when pools straddle RAM and
// disk, and the end-to-end payoff — a checker run that the RAM budget
// alone leaves Unfinished completes once the pools may spill.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "support/atomic_table.hpp"
#include "support/spill.hpp"
#include "verify/checker.hpp"
#include "verify/collapse.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

namespace fs = std::filesystem;
using runtime::AsyncSystem;
using verify::CollapsedStateSet;
using verify::CompressionMode;
using verify::MemoryBudget;
using verify::StorageOptions;

/// Fresh per-test directory under the gtest temp root; removed on scope
/// exit so failed runs don't accrete arenas.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::path(::testing::TempDir()) /
           ("ccref-spill-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::vector<std::byte> state_bytes(std::uint64_t id, std::size_t len = 32) {
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((id >> ((i % 8) * 8)) & 0xff);
  return b;
}

// ---- SpillArena ------------------------------------------------------------

TEST(SpillArena, MapWriteReadUnmap) {
  TempDir dir;
  SpillArena arena(dir.path.string());
  ASSERT_TRUE(arena.ok());
  std::byte* p = arena.map_chunk(64 << 10);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(arena.spill_bytes(), std::size_t{64} << 10);
  // Fresh chunks are zero-filled; writes persist across a cold hint.
  for (std::size_t i = 0; i < (64u << 10); ++i)
    ASSERT_EQ(p[i], std::byte{0}) << "offset " << i;
  for (std::size_t i = 0; i < (64u << 10); ++i)
    p[i] = static_cast<std::byte>(i * 7);
  arena.note_cold(p, 64 << 10);
  for (std::size_t i = 0; i < (64u << 10); ++i)
    ASSERT_EQ(p[i], static_cast<std::byte>(i * 7)) << "offset " << i;
  arena.unmap_chunk(p, 64 << 10);
  EXPECT_EQ(arena.spill_bytes(), 0u);
}

TEST(SpillArena, FilesAreUnlinkedImmediately) {
  // Each chunk file is unlinked right after mmap: a crashed run leaks no
  // disk blocks, and the directory stays empty while chunks are live.
  TempDir dir;
  SpillArena arena(dir.path.string());
  ASSERT_TRUE(arena.ok());
  std::byte* p = arena.map_chunk(4 << 10);
  ASSERT_NE(p, nullptr);
  std::size_t entries = 0;
  for ([[maybe_unused]] auto& e : fs::directory_iterator(dir.path)) ++entries;
  EXPECT_EQ(entries, 0u);
  arena.unmap_chunk(p, 4 << 10);
}

TEST(SpillArena, CapRefusesExcess) {
  TempDir dir;
  SpillArena arena(dir.path.string(), /*max_bytes=*/8 << 10);
  ASSERT_TRUE(arena.ok());
  std::byte* a = arena.map_chunk(4 << 10);
  ASSERT_NE(a, nullptr);
  // The second map would cross the cap: refused, accounting untouched.
  EXPECT_EQ(arena.map_chunk(8 << 10), nullptr);
  EXPECT_EQ(arena.spill_bytes(), std::size_t{4} << 10);
  arena.unmap_chunk(a, 4 << 10);
  // Released bytes come back under the cap.
  std::byte* b = arena.map_chunk(8 << 10);
  EXPECT_NE(b, nullptr);
  if (b != nullptr) arena.unmap_chunk(b, 8 << 10);
}

TEST(SpillArena, DeadWhenDirectoryImpossible) {
  // A path through /dev/null can never become a directory; the arena must
  // come up dead and refuse every map instead of crashing.
  SpillArena arena("/dev/null/ccref-spill");
  EXPECT_FALSE(arena.ok());
  EXPECT_EQ(arena.map_chunk(4 << 10), nullptr);
  EXPECT_EQ(arena.spill_bytes(), 0u);
}

// ---- ChunkedBytePool routing ----------------------------------------------

TEST(ChunkedBytePoolSpill, RamFirstThenSpillPastWatermark) {
  TempDir dir;
  SpillArena arena(dir.path.string());
  ASSERT_TRUE(arena.ok());
  MemoryBudget budget(1 << 20);
  // Watermark at 8 KB: the first chunks charge RAM, later ones spill even
  // though the budget still has headroom.
  ChunkedBytePool<MemoryBudget> pool(budget, 4096, {&arena, 8 << 10});
  std::vector<std::uint32_t> offsets;
  for (int i = 0; i < 64; ++i) {
    auto off = pool.alloc(1024);
    ASSERT_NE(off, ChunkedBytePool<MemoryBudget>::kNpos);
    std::memset(pool.data(off), i, 1024);
    offsets.push_back(off);
  }
  EXPECT_GT(pool.charged(), 0u);
  EXPECT_LE(pool.charged(), budget.used());
  EXPECT_GT(pool.spill_bytes(), 0u);
  EXPECT_EQ(pool.spill_bytes(), arena.spill_bytes());
  // Spilled bytes never hit the RAM budget.
  EXPECT_LE(budget.used(), std::size_t{8} << 10 << 1);
  for (int i = 0; i < 64; ++i) {
    const std::byte* p = pool.data(offsets[static_cast<std::size_t>(i)]);
    for (int j = 0; j < 1024; ++j)
      ASSERT_EQ(p[j], static_cast<std::byte>(i)) << "alloc " << i;
  }
}

TEST(ChunkedBytePoolSpill, FallsBackToRamWhenArenaExhausted) {
  TempDir dir;
  // Arena holds exactly one 4 KB chunk; watermark 0 sends everything to
  // spill first, so chunk 0 spills and chunk 1 must fall back to RAM.
  SpillArena arena(dir.path.string(), 4 << 10);
  ASSERT_TRUE(arena.ok());
  MemoryBudget budget(1 << 20);
  ChunkedBytePool<MemoryBudget> pool(budget, 4096, {&arena, 0});
  for (int i = 0; i < 12; ++i)
    ASSERT_NE(pool.alloc(1024), ChunkedBytePool<MemoryBudget>::kNpos);
  EXPECT_EQ(pool.spill_bytes(), std::size_t{4} << 10);
  EXPECT_GT(pool.charged(), 0u);
  EXPECT_EQ(budget.used(), pool.charged());
}

TEST(ChunkedBytePoolSpill, ExhaustionWhenDiskAndRamRefuse) {
  TempDir dir;
  SpillArena arena(dir.path.string(), 4 << 10);
  ASSERT_TRUE(arena.ok());
  // RAM budget covers one chunk too; after disk + RAM are spent the pool
  // reports exhaustion with books that still balance.
  MemoryBudget budget(4 << 10);
  ChunkedBytePool<MemoryBudget> pool(budget, 4096, {&arena, 0});
  std::size_t accepted = 0;
  for (;; ++accepted) {
    if (pool.alloc(512) == ChunkedBytePool<MemoryBudget>::kNpos) break;
    ASSERT_LT(accepted, 10000u);
  }
  // Chunk 0 (4 KB) spills and fills (8 records); chunk 1 doubles to 8 KB,
  // which the arena cap refuses and the RAM budget can back only in part:
  // its 4 KB go out in halving parts of chunks 1-4 (2 KB, 1 KB, 512 B,
  // 512 B: 8 more records) until nothing is left.
  EXPECT_EQ(accepted, 16u);
  EXPECT_EQ(pool.charged() + pool.spill_bytes(),
            pool.bytes_allocated() + pool.bytes_waste());
  EXPECT_LE(budget.used(), budget.limit());
}

TEST(ChunkedBytePoolSpill, WasteStaysHonestThroughConcurrentExhaustion) {
  // Several threads bump-allocate until both tiers refuse; mid-CAS losers
  // and skipped chunk tails may strand bytes, but held == handed-out +
  // waste must balance exactly, and the RAM budget must equal the pool's
  // RAM charge (nothing leaks, nothing is double-charged).
  TempDir dir;
  SpillArena arena(dir.path.string(), 16 << 10);
  ASSERT_TRUE(arena.ok());
  MemoryBudget budget(16 << 10);
  ChunkedBytePool<MemoryBudget> pool(budget, 4096, {&arena, 8 << 10});
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
  const std::size_t held = pool.charged() + pool.spill_bytes();
  EXPECT_EQ(held, pool.bytes_allocated() + pool.bytes_waste());
  EXPECT_EQ(budget.used(), pool.charged());
  EXPECT_LE(budget.used(), budget.limit());
}

// ---- visited sets over spilling pools --------------------------------------

TEST(StateSetSpill, StatesRoundTripAcrossTiers) {
  TempDir dir;
  SpillArena arena(dir.path.string());
  ASSERT_TRUE(arena.ok());
  // Watermark low enough that most record chunks land on disk while the
  // slot array and the insertion-order index stay in RAM.
  CollapsedStateSet set(256 << 10, {.spill = {&arena, 16 << 10}});
  std::vector<std::uint32_t> indices;
  for (std::uint64_t id = 0; id < 4000; ++id) {
    auto r = set.insert(state_bytes(id));
    ASSERT_EQ(r.outcome, InsertOutcome::Inserted) << "id " << id;
    indices.push_back(r.index);
  }
  EXPECT_GT(set.spill_bytes(), 0u);
  EXPECT_EQ(set.memory_used(), set.budget().used());
  for (std::uint64_t id = 0; id < 4000; ++id) {
    auto bytes = state_bytes(id);
    auto r = set.insert(bytes);
    ASSERT_EQ(r.outcome, InsertOutcome::AlreadyPresent);
    ASSERT_EQ(r.index, indices[id]);
    auto stored = set.at(indices[id]);
    ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(), stored.begin(),
                           stored.end()));
  }
}

TEST(CollapsedSetSpill, DictionariesSpillAndBooksBalance) {
  TempDir dir;
  SpillArena arena(dir.path.string());
  ASSERT_TRUE(arena.ok());
  StorageOptions st;
  st.compress = CompressionMode::Collapse;
  st.spill = {&arena, 8 << 10};
  // The budget mostly feeds the RAM-only entry tables (tuples plus three
  // dictionaries); the pools behind them overflow to the arena.
  CollapsedStateSet set(1 << 20, st);
  std::vector<ComponentMark> marks{{8, 0}, {16, 1}, {24, 2}};
  std::vector<std::uint32_t> indices;
  for (std::uint64_t id = 0; id < 3000; ++id) {
    auto r = set.insert(state_bytes(id), marks);
    ASSERT_EQ(r.outcome, InsertOutcome::Inserted) << "id " << id;
    indices.push_back(r.index);
  }
  EXPECT_GT(set.spill_bytes(), 0u);
  EXPECT_EQ(set.memory_used(), set.budget().used());
  for (std::uint64_t id = 0; id < 3000; ++id) {
    auto bytes = state_bytes(id);
    auto stored = set.at(indices[id]);
    ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(), stored.begin(),
                           stored.end()))
        << "id " << id;
  }
}

// ---- end to end: spill turns Unfinished into a verdict ---------------------

TEST(SpillEndToEnd, BreaksTheRamWallSequentialAndParallel) {
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

  TempDir dir;
  SpillArena arena(dir.path.string());
  ASSERT_TRUE(arena.ok());
  opts.spill = {&arena, opts.memory_limit / 2};
  auto spilled = verify::explore(sys, opts);
  EXPECT_EQ(spilled.status, verify::Status::Ok);
  EXPECT_EQ(spilled.states, reference.states);
  EXPECT_EQ(spilled.transitions, reference.transitions);
  EXPECT_GT(spilled.spill_bytes, 0u);
  EXPECT_LE(spilled.memory_bytes, opts.memory_limit);

  auto par = verify::par_explore(sys, opts, 4);
  EXPECT_EQ(par.status, verify::Status::Ok);
  EXPECT_EQ(par.states, reference.states);
  EXPECT_GT(par.spill_bytes, 0u);
}

TEST(SpillEndToEnd, DiskExhaustionReportsUnfinished) {
  // A spill cap small enough that disk runs out mid-search must surface as
  // an honest Unfinished, exactly like RAM exhaustion — never a crash or a
  // silently truncated Ok.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 4);
  TempDir dir;
  SpillArena arena(dir.path.string(), /*max_bytes=*/64 << 10);
  ASSERT_TRUE(arena.ok());
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.detect_deadlock = false;
  opts.memory_limit = 2u << 20;
  opts.spill = {&arena, opts.memory_limit / 2};
  auto r = verify::explore(sys, opts);
  EXPECT_EQ(r.status, verify::Status::Unfinished);
  EXPECT_LE(r.spill_bytes, std::size_t{64} << 10);
  EXPECT_LE(r.memory_bytes, opts.memory_limit);
}

}  // namespace
}  // namespace ccref

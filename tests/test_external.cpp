// External-memory visited tier (support/run_file.hpp +
// verify/external_set.hpp and the --external routing through collapse.hpp
// / checker.hpp / par_checker.hpp): run-file I/O discipline, the
// exactly-once admission guarantee of sorted-run delayed duplicate
// detection across cache evictions and merge generations, verdict/count
// agreement with the in-RAM reference across the engine x symmetry
// matrix, counterexample traces replayed from the order log, the
// composition notes, and the payoff — runs that a 2 MB RAM
// budget leaves Unfinished reach exact verdicts once the table moves to
// disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "support/hash.hpp"
#include "support/run_file.hpp"
#include "verify/checker.hpp"
#include "verify/external_set.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

namespace fs = std::filesystem;
using runtime::AsyncSystem;
using verify::CollapsedStateSet;
using verify::ExternalVisitedSet;
using verify::MemoryBudget;
using verify::ResolveOutcome;
using verify::SymmetryMode;

/// Fresh per-test directory under the gtest temp root; removed on scope
/// exit so failed runs don't accrete run files.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::path(::testing::TempDir()) /
           ("ccref-ext-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::vector<std::byte> rec_bytes(std::uint64_t id, std::size_t len = 24) {
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((id >> ((i % 8) * 8)) & 0xff);
  return b;
}

// ---- RunFile ---------------------------------------------------------------

TEST(RunFile, AppendFlushReadRoundTrip) {
  TempDir dir;
  ASSERT_TRUE(ensure_run_dir(dir.path.string()));
  RunFile f;
  ASSERT_TRUE(f.open(dir.path.string(), "t", /*buffer_bytes=*/64));
  ASSERT_TRUE(f.ok());
  // Appends larger and smaller than the buffer, to exercise both paths.
  std::vector<std::uint64_t> vals;
  for (std::uint64_t i = 0; i < 1000; ++i) vals.push_back(i * 0x9e37ull);
  for (std::uint64_t v : vals) ASSERT_TRUE(f.append(&v, sizeof(v)));
  EXPECT_EQ(f.bytes(), vals.size() * sizeof(std::uint64_t));
  ASSERT_TRUE(f.flush());
  // Positioned reads.
  std::uint64_t v = 0;
  ASSERT_TRUE(f.pread_at(500 * sizeof(v), &v, sizeof(v)));
  EXPECT_EQ(v, vals[500]);
  // Sequential reader sees every value, then reports a clean end.
  RunFile::Reader r(f, 128);
  for (std::uint64_t expect : vals) {
    const std::byte* got = r.take(sizeof(v));
    ASSERT_NE(got, nullptr);
    std::memcpy(&v, got, sizeof(v));
    ASSERT_EQ(v, expect);
  }
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.take(sizeof(v)), nullptr);
}

TEST(RunFile, FilesAreUnlinkedImmediately) {
  // The fd owns the blocks: the directory stays empty while the file is
  // live, so a crashed run leaks nothing.
  TempDir dir;
  ASSERT_TRUE(ensure_run_dir(dir.path.string()));
  RunFile f;
  ASSERT_TRUE(f.open(dir.path.string(), "t"));
  std::size_t entries = 0;
  for ([[maybe_unused]] auto& e : fs::directory_iterator(dir.path)) ++entries;
  EXPECT_EQ(entries, 0u);
}

TEST(RunFile, ResetRestartsAppendsAtZero) {
  TempDir dir;
  ASSERT_TRUE(ensure_run_dir(dir.path.string()));
  RunFile f;
  ASSERT_TRUE(f.open(dir.path.string(), "t"));
  std::uint64_t v = 7;
  ASSERT_TRUE(f.append(&v, sizeof(v)));
  ASSERT_TRUE(f.reset());
  EXPECT_EQ(f.bytes(), 0u);
  v = 11;
  ASSERT_TRUE(f.append(&v, sizeof(v)));
  ASSERT_TRUE(f.flush());
  std::uint64_t got = 0;
  ASSERT_TRUE(f.pread_at(0, &got, sizeof(got)));
  EXPECT_EQ(got, 11u);
  EXPECT_EQ(f.bytes(), sizeof(std::uint64_t));
}

TEST(RunFile, RewindNeverExposesTheStaleTail) {
  // A rewound file is overwritten in place, not truncated: a shorter
  // second generation leaves the first one's tail on disk, and no read
  // may reach it.
  TempDir dir;
  ASSERT_TRUE(ensure_run_dir(dir.path.string()));
  RunFile f;
  ASSERT_TRUE(f.open(dir.path.string(), "t", /*buffer_bytes=*/0));
  std::vector<std::uint64_t> long_gen(1000, 0xaaaa), short_gen(10, 0xbbbb);
  ASSERT_TRUE(f.append(long_gen.data(), long_gen.size() * 8));
  ASSERT_TRUE(f.rewind());
  EXPECT_EQ(f.bytes(), 0u);
  ASSERT_TRUE(f.append(short_gen.data(), short_gen.size() * 8));
  ASSERT_TRUE(f.flush());
  EXPECT_EQ(f.bytes(), 80u);
  EXPECT_EQ(f.high_water(), 8000u);
  std::uint64_t v = 0;
  EXPECT_FALSE(f.pread_at(80, &v, sizeof(v)));
  // Small and large windows both stop at the logical end.
  for (std::size_t window : {64u, 4096u}) {
    RunFile::Reader r(f, window);
    std::size_t n = 0;
    while (const std::byte* got = r.take(sizeof(v))) {
      std::memcpy(&v, got, sizeof(v));
      EXPECT_EQ(v, 0xbbbbu);
      ++n;
    }
    EXPECT_EQ(n, short_gen.size()) << "window " << window;
  }
}

TEST(RunFile, FramedAppendAndWindowTake) {
  // (len, bytes) records through the two-part append, read back through a
  // 64-byte window: records that straddle the window edge, one far larger
  // than the window (which grows), and a restart that shrinks it again.
  TempDir dir;
  ASSERT_TRUE(ensure_run_dir(dir.path.string()));
  RunFile f;
  ASSERT_TRUE(f.open(dir.path.string(), "t", /*buffer_bytes=*/128));
  std::vector<std::size_t> lens;
  for (std::size_t i = 0; i < 40; ++i) lens.push_back((i * 7) % 50);
  lens.push_back(1000);
  lens.push_back(3);
  for (std::size_t i = 0; i < lens.size(); ++i) {
    const auto len = static_cast<std::uint32_t>(lens[i]);
    auto body = rec_bytes(i + 1, lens[i]);
    ASSERT_TRUE(f.append(&len, sizeof(len), body.data(), body.size()));
  }
  ASSERT_TRUE(f.flush());
  RunFile::Reader r(f, 64);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < lens.size(); ++i) {
      const std::byte* head = r.take(sizeof(std::uint32_t));
      ASSERT_NE(head, nullptr) << "record " << i;
      std::uint32_t len = 0;
      std::memcpy(&len, head, sizeof(len));
      ASSERT_EQ(len, lens[i]);
      const std::byte* body = r.take(len);
      ASSERT_NE(body, nullptr) << "record " << i;
      auto expect = rec_bytes(i + 1, len);
      EXPECT_TRUE(std::equal(expect.begin(), expect.end(), body))
          << "record " << i;
    }
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(r.take(1), nullptr);
    EXPECT_GE(r.window_bytes(), 1000u);
    r.restart(f);
    EXPECT_EQ(r.window_bytes(), 64u);
  }
}

TEST(RunFile, DeadWhenDirectoryImpossible) {
  // A path through /dev/null can never become a directory: open must fail
  // cleanly and every later operation must report failure, not crash.
  EXPECT_FALSE(ensure_run_dir("/dev/null/ccref-ext"));
  RunFile f;
  EXPECT_FALSE(f.open("/dev/null/ccref-ext", "t"));
  EXPECT_FALSE(f.ok());
  std::uint64_t v = 1;
  EXPECT_FALSE(f.append(&v, sizeof(v)));
}

// ---- ExternalVisitedSet ----------------------------------------------------

TEST(ExternalSet, CacheFrontHitIsExactAlreadyPresent) {
  TempDir dir;
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 4;
  cfg.watermark = 1 << 20;  // never auto-ripe; this test resolves nothing
  cfg.cache_slots = 1024;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());
  auto bytes = rec_bytes(1);
  EXPECT_EQ(set.insert(42, 0, bytes), ExternalVisitedSet::Outcome::Deferred);
  // The repeat probe hits the cache front: exact, nothing new queued.
  EXPECT_EQ(set.insert(42, 0, bytes),
            ExternalVisitedSet::Outcome::AlreadyPresent);
  EXPECT_EQ(set.pending(), 1u);
  EXPECT_GT(set.disk_bytes(), 0u);
  EXPECT_EQ(budget.used(), set.memory_used());
}

TEST(ExternalSet, ExactlyOnceAcrossCacheEvictionAndMerges) {
  // The admission guarantee under the worst case for the cache front: the
  // same fingerprint re-queued after eviction must be dropped by the merge
  // — first by batch-internal dedupe, then by the history run.
  TempDir dir;
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 1;
  cfg.watermark = 1 << 20;  // resolve manually
  cfg.cache_slots = 1024;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());

  const std::uint64_t fp_a = 0x5555;
  auto enqueue_round = [&] {
    // fp_a, then 16 distinct fingerprints sharing its cache slot window
    // (same low bits): the 8-probe window is fully overwritten, so the
    // final re-insert of fp_a MISSES the cache and goes to disk again.
    EXPECT_NE(set.insert(fp_a, 0, rec_bytes(0)),
              ExternalVisitedSet::Outcome::Exhausted);
    for (std::uint64_t i = 1; i <= 16; ++i)
      EXPECT_NE(set.insert(fp_a + i * 1024, 0, rec_bytes(i)),
                ExternalVisitedSet::Outcome::Exhausted);
    ASSERT_EQ(set.insert(fp_a, 0, rec_bytes(0)),
              ExternalVisitedSet::Outcome::Deferred)
        << "cache eviction plan broke — fix the filler fingerprints";
  };

  enqueue_round();
  std::vector<std::uint64_t> admitted;
  auto collect = [&](std::uint32_t index, std::uint64_t fp, std::uint64_t,
                     std::span<const std::byte>) {
    EXPECT_EQ(index, admitted.size());
    admitted.push_back(fp);
  };
  ASSERT_EQ(set.resolve(false, collect), ResolveOutcome::Fresh);
  // 18 pending entries, 17 distinct fingerprints: batch dedupe kept the
  // first fp_a occurrence only.
  EXPECT_EQ(admitted.size(), 17u);
  EXPECT_EQ(set.size(), 17u);
  EXPECT_EQ(set.pending(), 0u);

  // Second generation: every fingerprint is now in the history run, so a
  // full re-enqueue must drain without a single fresh state.
  enqueue_round();
  admitted.clear();
  ASSERT_EQ(set.resolve(false, collect), ResolveOutcome::Drained);
  EXPECT_TRUE(admitted.empty());
  EXPECT_EQ(set.size(), 17u);
  EXPECT_GE(set.merge_passes(), 2u);
  EXPECT_EQ(budget.used(), set.memory_used());
}

TEST(ExternalSet, WatermarkGatesRipeResolve) {
  TempDir dir;
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 2;  // high fingerprint bit routes the partition
  cfg.watermark = 8;
  cfg.cache_slots = 1024;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());
  // Fill partition 0 past the watermark; partition 1 gets a single entry.
  for (std::uint64_t i = 1; i <= 8; ++i)
    ASSERT_EQ(set.insert(i * 2048, 0, rec_bytes(i)),
              ExternalVisitedSet::Outcome::Deferred);
  ASSERT_EQ(set.insert((std::uint64_t{1} << 63) | 3, 0, rec_bytes(99)),
            ExternalVisitedSet::Outcome::Deferred);
  EXPECT_TRUE(set.needs_resolve());
  std::size_t fresh = 0;
  ASSERT_EQ(set.resolve(/*only_ripe=*/true,
                        [&](std::uint32_t, std::uint64_t, std::uint64_t,
                            std::span<const std::byte>) { ++fresh; }),
            ResolveOutcome::Fresh);
  // Only the ripe partition was merged; the lone entry still waits.
  EXPECT_EQ(fresh, 8u);
  EXPECT_EQ(set.pending(), 1u);
  EXPECT_FALSE(set.needs_resolve());
  // The drain pass (only_ripe=false) flushes the rest.
  ASSERT_EQ(set.resolve(false,
                        [&](std::uint32_t, std::uint64_t, std::uint64_t,
                            std::span<const std::byte>) { ++fresh; }),
            ResolveOutcome::Fresh);
  EXPECT_EQ(fresh, 9u);
  EXPECT_EQ(set.pending(), 0u);
}

TEST(ExternalSet, OrderLogReplaysFingerprintAndParent) {
  TempDir dir;
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 1;
  cfg.watermark = 1 << 20;
  cfg.cache_slots = 1024;
  cfg.keep_order_log = true;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());
  for (std::uint64_t i = 1; i <= 50; ++i)
    ASSERT_EQ(set.insert(i * 7919, i - 1, rec_bytes(i)),
              ExternalVisitedSet::Outcome::Deferred);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
  ASSERT_EQ(set.resolve(false,
                        [&](std::uint32_t index, std::uint64_t fp,
                            std::uint64_t parent, std::span<const std::byte>) {
                          EXPECT_EQ(index, seen.size());
                          seen.emplace_back(fp, parent);
                        }),
            ResolveOutcome::Fresh);
  ASSERT_EQ(seen.size(), 50u);
  // The order log serves random-access replay of exactly what resolve
  // delivered — the trace-reconstruction contract.
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(set.fingerprint_at(i), seen[i].first) << "index " << i;
    EXPECT_EQ(set.parent_at(i), seen[i].second) << "index " << i;
  }
}

TEST(ExternalSet, SurvivorBytesRoundTripThroughRecordFile) {
  TempDir dir;
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 1;
  cfg.watermark = 1 << 20;
  cfg.cache_slots = 1024;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());
  // Varying record lengths, so the stream framing is actually exercised.
  for (std::uint64_t i = 1; i <= 40; ++i)
    ASSERT_EQ(set.insert(i * 6151, 0, rec_bytes(i, 8 + (i % 5) * 16)),
              ExternalVisitedSet::Outcome::Deferred);
  std::size_t checked = 0;
  ASSERT_EQ(set.resolve(false,
                        [&](std::uint32_t, std::uint64_t, std::uint64_t,
                            std::span<const std::byte> bytes) {
                          ++checked;
                          auto expect =
                              rec_bytes(checked, 8 + (checked % 5) * 16);
                          ASSERT_EQ(bytes.size(), expect.size());
                          EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                                                 bytes.begin()));
                        }),
            ResolveOutcome::Fresh);
  EXPECT_EQ(checked, 40u);
}

TEST(ExternalSet, DeadDirectoryReportsExhaustedNotCrash) {
  MemoryBudget budget(16 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = "/dev/null/ccref-ext";
  cfg.partitions = 1;
  cfg.cache_slots = 1024;
  ExternalVisitedSet set(budget, cfg);
  EXPECT_FALSE(set.ok());
  EXPECT_EQ(set.insert(1, 0, rec_bytes(1)),
            ExternalVisitedSet::Outcome::Exhausted);
  EXPECT_EQ(set.resolve(false,
                        [](std::uint32_t, std::uint64_t, std::uint64_t,
                           std::span<const std::byte>) {}),
            ResolveOutcome::Failed);
}

TEST(ExternalSet, BlockMergeMatchesSetReference) {
  // Many batches through resolve() against a std::set reference: the
  // admitted set and the admission order must match exactly. Histories
  // grow past three 32 KB stream blocks (4096 fingerprints each), and the
  // batches include keys on block edges, duplicates of them within the
  // batch, all-duplicate batches, a batch into an empty history, and fp 0
  // (stored as 1, the cache's empty-slot marker).
  TempDir dir;
  MemoryBudget budget(64 << 20);
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 1;
  cfg.watermark = 1 << 20;  // resolve manually
  cfg.cache_slots = 1024;   // small: repeats mostly miss and reach disk
  cfg.keep_order_log = true;
  ExternalVisitedSet set(budget, cfg);
  ASSERT_TRUE(set.ok());

  constexpr std::size_t kBlock = 32768 / sizeof(std::uint64_t);
  std::mt19937_64 rng(20260917);
  std::set<std::uint64_t> reference;
  std::vector<std::uint64_t> admitted_order;  // every admission, in order
  std::size_t all_dup_batches = 0;

  auto run_batch = [&](const std::vector<std::uint64_t>& batch) {
    std::vector<std::uint64_t> expect;  // fresh, first arrival order
    std::set<std::uint64_t> in_batch;
    for (std::uint64_t fp : batch) {
      const std::uint64_t key = fp == 0 ? 1 : fp;
      const auto o = set.insert(fp, key ^ 0x5a5a, rec_bytes(key, key % 37));
      ASSERT_NE(o, ExternalVisitedSet::Outcome::Exhausted);
      if (o == ExternalVisitedSet::Outcome::AlreadyPresent) {
        // A cache hit is exact: admitted earlier or pending in this batch.
        ASSERT_TRUE(reference.count(key) || in_batch.count(key)) << key;
        continue;
      }
      if (!reference.count(key) && in_batch.insert(key).second)
        expect.push_back(key);
    }
    std::vector<std::uint64_t> got;
    const auto r = set.resolve(
        false, [&](std::uint32_t index, std::uint64_t fp, std::uint64_t parent,
                   std::span<const std::byte> bytes) {
          EXPECT_EQ(index, admitted_order.size() + got.size());
          EXPECT_EQ(parent, fp ^ 0x5a5a);
          auto want = rec_bytes(fp, fp % 37);
          EXPECT_TRUE(std::equal(want.begin(), want.end(), bytes.begin(),
                                 bytes.end()));
          got.push_back(fp);
        });
    ASSERT_NE(r, ResolveOutcome::Failed);
    EXPECT_EQ(r == ResolveOutcome::Fresh, !expect.empty());
    ASSERT_EQ(got, expect);
    if (expect.empty()) ++all_dup_batches;
    for (std::uint64_t fp : got) {
      reference.insert(fp);
      admitted_order.push_back(fp);
    }
    ASSERT_EQ(set.size(), reference.size());
    ASSERT_EQ(set.pending(), 0u);
  };

  // Batch into an empty history, with fp 0 and in-batch duplicates.
  std::vector<std::uint64_t> batch{0, 5, 0, 1, 5};
  for (int i = 0; i < 3000; ++i) batch.push_back(rng());
  run_batch(batch);

  for (int round = 0; round < 12; ++round) {
    const std::vector<std::uint64_t> hist(reference.begin(), reference.end());
    batch.clear();
    for (int i = 0; i < 3000; ++i) batch.push_back(rng());
    // History keys on and beside block edges, each twice (a duplicate
    // pair straddling the edge), plus new keys just past them.
    for (std::size_t edge = kBlock; edge < hist.size(); edge += kBlock) {
      for (std::size_t k : {edge - 1, edge, edge + 1}) {
        if (k >= hist.size()) continue;
        batch.push_back(hist[k]);
        batch.push_back(hist[k] + 1);
        batch.push_back(hist[k]);
        batch.push_back(hist[k] + 1);
      }
    }
    for (int i = 0; i < 200; ++i) batch.push_back(hist[rng() % hist.size()]);
    batch.push_back(hist.front());
    batch.push_back(hist.back());
    batch.push_back(hist.back() + 1);
    batch.push_back(0);
    std::shuffle(batch.begin(), batch.end(), rng);
    run_batch(batch);
    if (round % 4 == 3) {  // every key already admitted
      std::vector<std::uint64_t> dups(reference.begin(), reference.end());
      std::shuffle(dups.begin(), dups.end(), rng);
      dups.resize(5000);
      run_batch(dups);
    }
  }
  EXPECT_GE(reference.size(), 3 * kBlock + 1);
  EXPECT_EQ(all_dup_batches, 3u);
  // The order log replays every admission after the resolves.
  for (std::uint32_t i = 0; i < admitted_order.size(); i += 97)
    ASSERT_EQ(set.fingerprint_at(i), admitted_order[i]) << "index " << i;
  // With nothing pending, disk holds the live history run and the order
  // log: the older history file's stale contents are not counted twice.
  EXPECT_EQ(set.disk_bytes(), reference.size() * sizeof(std::uint64_t) * 3);
  EXPECT_GT(set.merge_bytes_read(), set.merge_bytes_written());
  EXPECT_EQ(budget.used(), set.memory_used());
}

TEST(ExternalSet, EveryBufferIsChargedToTheBudget) {
  // All RAM of the tier is charged: the order log's buffer on the set, the
  // frontier queue's append buffer and read window on CollapsedStateSet.
  TempDir dir;
  ExternalVisitedSet::Config cfg;
  cfg.dir = dir.path.string();
  cfg.partitions = 2;
  cfg.cache_slots = 1024;
  MemoryBudget plain_budget(16 << 20), logged_budget(16 << 20);
  ExternalVisitedSet plain(plain_budget, cfg);
  cfg.keep_order_log = true;
  ExternalVisitedSet logged(logged_budget, cfg);
  EXPECT_GT(logged.memory_used(), plain.memory_used());
  EXPECT_EQ(logged_budget.used(), logged.memory_used());

  verify::StorageOptions st;
  st.external.dir = dir.path.string();
  st.keep_fingerprints = true;
  CollapsedStateSet seen(8u << 20, st);
  MemoryBudget alone_budget(8u << 20);
  auto alone_cfg = ExternalVisitedSet::configure(st.external, 8u << 20);
  alone_cfg.keep_order_log = true;
  ExternalVisitedSet alone(alone_budget, alone_cfg);
  EXPECT_EQ(seen.budget().used(), seen.memory_used());
  EXPECT_GE(seen.memory_used(), alone.memory_used() + 2 * 32768);
}

TEST(ExternalSet, FrontierWindowAcrossEdgesGrowthAndReset) {
  // The frontier queue is read back through one window: records straddle
  // its edge, one is larger than it (the window grows, and the growth is
  // charged), and the queue reset between BFS waves drops the growth.
  TempDir dir;
  verify::StorageOptions st;
  st.external.dir = dir.path.string();
  // Fingerprints with zero high bits all land in partition 0, so
  // admission follows arrival order.
  st.fingerprint = [](std::span<const std::byte> b) {
    return hash_bytes(b) >> 8;
  };
  CollapsedStateSet seen(64u << 20, st);
  const std::size_t base = seen.memory_used();
  ASSERT_EQ(seen.budget().used(), base);

  std::uint32_t next = 0;
  auto wave = [&](std::uint64_t first_id, std::size_t count,
                  std::size_t big_at) {
    auto len_of = [&](std::uint64_t id) {
      return id - first_id == big_at ? std::size_t{100000}
                                     : 16 + static_cast<std::size_t>(id % 300);
    };
    for (std::uint64_t id = first_id; id < first_id + count; ++id)
      ASSERT_EQ(seen.insert(rec_bytes(id, len_of(id))).outcome,
                CollapsedStateSet::Outcome::Deferred);
    ASSERT_EQ(seen.resolve_pending(), ResolveOutcome::Fresh);
    ASSERT_EQ(seen.size(), next + count);
    for (std::uint64_t id = first_id; id < first_id + count; ++id) {
      auto got = seen.at(next++);
      auto want = rec_bytes(id, len_of(id));
      ASSERT_EQ(got.size(), want.size()) << "id " << id;
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin())) << id;
      EXPECT_EQ(seen.budget().used(), seen.memory_used());
    }
  };
  wave(1, 600, 300);  // ~100 KB of small records around a 100 KB one
  EXPECT_GE(seen.memory_used(), base + 100000 - 32768);
  wave(1000, 400, 1000);  // the reset before this wave drops the growth
  EXPECT_EQ(seen.memory_used(), base);
  EXPECT_EQ(seen.budget().used(), base);
}

// ---- agreement with the in-RAM reference across the matrix -----------------

template <class Sys>
verify::CheckResult check_ext(const Sys& sys, const std::string& dir,
                              SymmetryMode symmetry, unsigned jobs) {
  verify::CheckOptions<Sys> opts;
  opts.want_trace = false;
  opts.symmetry = symmetry;
  opts.memory_limit = 512u << 20;
  if (!dir.empty()) opts.external.dir = dir;
  return jobs <= 1 ? verify::explore(sys, opts)
                   : verify::par_explore(sys, opts, jobs);
}

void expect_ext_agreement(const ir::Protocol& p, int n, const char* what) {
  // At these sizes the fingerprint birthday bound is ~1e-14: a collision
  // in-test would be a hash bug, not bad luck.
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, n);
  TempDir dir;
  for (unsigned jobs : {1u, 4u}) {
    for (auto sym : {SymmetryMode::Off, SymmetryMode::Canonical}) {
      auto ref = check_ext(sys, "", sym, jobs);
      ASSERT_EQ(ref.status, verify::Status::Ok)
          << what << " jobs=" << jobs;
      auto ext = check_ext(sys, dir.path.string(), sym, jobs);
      EXPECT_EQ(ext.status, verify::Status::Ok)
          << what << " jobs=" << jobs << " note: " << ext.note;
      EXPECT_EQ(ext.states, ref.states) << what << " jobs=" << jobs;
      EXPECT_EQ(ext.transitions, ref.transitions)
          << what << " jobs=" << jobs;
      EXPECT_GT(ext.external_bytes, 0u) << what;
      EXPECT_GT(ext.omission_probability, 0.0) << what;
      EXPECT_LT(ext.omission_probability, 1e-9) << what;
    }
  }
}

TEST(ExternalAgreement, Migratory) {
  expect_ext_agreement(protocols::make_migratory(), 3, "migratory");
}

TEST(ExternalAgreement, Invalidate) {
  expect_ext_agreement(protocols::make_invalidate(), 2, "invalidate");
}

TEST(ExternalAgreement, WriteUpdate) {
  expect_ext_agreement(protocols::make_write_update(), 2, "writeupdate");
}

TEST(ExternalAgreement, LockServer) {
  expect_ext_agreement(protocols::make_lock_server(), 3, "lockserver");
}

// ---- composition notes -----------------------------------------------------

TEST(ExternalComposition, CompressRequestIsNotedAndIgnored) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  TempDir dir;
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.compress = verify::CompressionMode::Collapse;
  opts.external.dir = dir.path.string();
  for (unsigned jobs : {1u, 2u}) {
    auto r = jobs <= 1 ? verify::explore(sys, opts)
                       : verify::par_explore(sys, opts, jobs);
    EXPECT_EQ(r.status, verify::Status::Ok) << "jobs=" << jobs;
    EXPECT_NE(r.note.find("hash"), std::string::npos)
        << "jobs=" << jobs << " note: " << r.note;
  }
}

TEST(ExternalComposition, HashCompactIsSubsumed) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  TempDir dir;
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.hash_compact = true;
  opts.external.dir = dir.path.string();
  for (unsigned jobs : {1u, 2u}) {
    auto r = jobs <= 1 ? verify::explore(sys, opts)
                       : verify::par_explore(sys, opts, jobs);
    EXPECT_EQ(r.status, verify::Status::Ok) << "jobs=" << jobs;
    EXPECT_NE(r.note.find("subsumed"), std::string::npos)
        << "jobs=" << jobs << " note: " << r.note;
  }
}

// ---- one tier resolver for both engines ----------------------------------

/// The note par_explore appends to explore()'s when it hands an external
/// run to the sequential engine.
std::string with_one_worker_note(const std::string& seq_note, unsigned jobs) {
  const std::string suffix = "external tier explores on one worker: --jobs " +
                             std::to_string(jobs) + " ignored";
  return seq_note.empty() ? suffix : seq_note + "; " + suffix;
}

/// (invariant set, compress collapse, hash_compact, external).
using StorageCase = std::tuple<bool, bool, bool, bool>;

std::string storage_case_name(const StorageCase& c) {
  auto [inv, collapse, hc, ext] = c;
  return std::string(inv ? "Inv" : "NoInv") +
         (collapse ? "Collapse" : "Raw") + (hc ? "Hc" : "NoHc") +
         (ext ? "Ext" : "Ram");
}

class StorageResolution : public ::testing::TestWithParam<StorageCase> {};

TEST_P(StorageResolution, EnginesReportTheSameNotesAndOmissionBound) {
  // explore() and par_explore() share resolve_storage(), so every option
  // combination yields the same note, byte for byte, and an omission bound
  // exactly when states are stored as fingerprints. Under the external
  // tier par_explore runs explore() and appends one note saying so.
  const auto [inv, collapse, hc, ext] = GetParam();
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("ccref-resolve-" + storage_case_name(GetParam()));
  fs::remove_all(dir);
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  if (inv) opts.invariant = [](const AsyncSystem::State&) { return ""; };
  opts.compress = collapse ? verify::CompressionMode::Collapse
                           : verify::CompressionMode::Off;
  opts.hash_compact = hc;
  if (ext) opts.external.dir = dir.string();
  auto seq = verify::explore(sys, opts);
  auto par = verify::par_explore(sys, opts, 2);
  fs::remove_all(dir);
  ASSERT_EQ(seq.status, verify::Status::Ok) << seq.note;
  ASSERT_EQ(par.status, verify::Status::Ok) << par.note;
  EXPECT_EQ(par.note, ext ? with_one_worker_note(seq.note, 2) : seq.note);
  EXPECT_EQ(seq.omission_probability > 0, hc || ext) << seq.note;
  EXPECT_EQ(par.omission_probability > 0, hc || ext) << par.note;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StorageResolution,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) { return storage_case_name(info.param); });

// ---- traces stay exact through the order log -------------------------------

TEST(ExternalTrace, ViolationTraceMatchesRamStorage) {
  // The external tier stores fingerprints, not states: the trace is
  // re-concretized by replaying real transitions whose fingerprints match
  // the order log's parent chain, so seq labels must be identical to the
  // RAM-storage trace, step for step.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  TempDir dir;
  verify::CheckResult results[2];
  int i = 0;
  for (bool external : {false, true}) {
    verify::CheckOptions<AsyncSystem> opts;
    opts.want_trace = true;
    if (external) opts.external.dir = dir.path.string();
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

TEST(ExternalTrace, ParallelViolationTraceIsValid) {
  // Parallel BFS order is nondeterministic, so the trace may differ from
  // the sequential one — but it must exist, start at the initial state,
  // and end in the reported violation.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  TempDir dir;
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = true;
  opts.external.dir = dir.path.string();
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

// ---- the payoff: disk finishes where the RAM budget cannot -----------------

TEST(ExternalEndToEnd, BreaksTheRamWallSequentialAndParallel) {
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
  opts.external.dir = dir.path.string();
  auto ext = verify::explore(sys, opts);
  EXPECT_EQ(ext.status, verify::Status::Ok) << "note: " << ext.note;
  EXPECT_EQ(ext.states, reference.states);
  EXPECT_EQ(ext.transitions, reference.transitions);
  EXPECT_GT(ext.external_bytes, 0u);
  EXPECT_GT(ext.merge_passes, 0u);
  EXPECT_LE(ext.memory_bytes, opts.memory_limit);

  auto par = verify::par_explore(sys, opts, 4);
  EXPECT_EQ(par.status, verify::Status::Ok) << "note: " << par.note;
  EXPECT_EQ(par.states, reference.states);
  EXPECT_GT(par.external_bytes, 0u);
  EXPECT_LE(par.memory_bytes, opts.memory_limit);
}

TEST(ExternalEndToEnd, ParallelEngineDelegatesToTheSequentialOne) {
  // par_explore runs the external tier through explore(): at any job
  // count it returns explore()'s result field for field (all but the wall
  // time), plus the one-worker note. Both the wall case and a traced
  // violation are compared.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 4);
  TempDir dir;
  verify::CheckOptions<AsyncSystem> wall;
  wall.want_trace = false;
  wall.detect_deadlock = false;
  wall.memory_limit = 2u << 20;
  wall.external.dir = dir.path.string();
  verify::CheckOptions<AsyncSystem> violating = wall;
  violating.want_trace = true;
  violating.invariant = [&sys](const runtime::AsyncState& s) {
    return s.remotes[3].state != sys.initial().remotes[3].state
               ? "remote 3 left its initial state"
               : std::string();
  };
  for (const auto* opts : {&wall, &violating}) {
    const auto seq = verify::explore(sys, *opts);
    ASSERT_EQ(seq.status, opts->invariant ? verify::Status::InvariantViolated
                                          : verify::Status::Ok)
        << seq.note;
    if (!opts->invariant) {
      EXPECT_GT(seq.merge_passes, 0u);
    }
    for (unsigned jobs : {2u, 4u}) {
      const auto par = verify::par_explore(sys, *opts, jobs);
      EXPECT_EQ(par.status, seq.status) << "jobs=" << jobs;
      EXPECT_EQ(par.states, seq.states) << "jobs=" << jobs;
      EXPECT_EQ(par.transitions, seq.transitions) << "jobs=" << jobs;
      EXPECT_EQ(par.merge_passes, seq.merge_passes) << "jobs=" << jobs;
      EXPECT_EQ(par.merge_bytes_read, seq.merge_bytes_read) << "jobs=" << jobs;
      EXPECT_EQ(par.merge_bytes_written, seq.merge_bytes_written)
          << "jobs=" << jobs;
      EXPECT_EQ(par.external_bytes, seq.external_bytes) << "jobs=" << jobs;
      EXPECT_EQ(par.memory_bytes, seq.memory_bytes) << "jobs=" << jobs;
      EXPECT_EQ(par.pool_bytes, seq.pool_bytes) << "jobs=" << jobs;
      EXPECT_EQ(par.raw_pool_bytes, seq.raw_pool_bytes) << "jobs=" << jobs;
      EXPECT_EQ(par.omission_probability, seq.omission_probability)
          << "jobs=" << jobs;
      EXPECT_EQ(par.violation, seq.violation) << "jobs=" << jobs;
      EXPECT_EQ(par.trace, seq.trace) << "jobs=" << jobs;
      EXPECT_EQ(par.note, with_one_worker_note(seq.note, jobs));
    }
  }
}

TEST(ExternalEndToEnd, DeadDiskReportsUnfinished) {
  // An unusable --external directory must surface as an honest Unfinished
  // (disk took the table's place and disk is gone) — never a crash or a
  // silently truncated Ok.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.detect_deadlock = false;
  opts.external.dir = "/dev/null/ccref-ext";
  auto seq = verify::explore(sys, opts);
  EXPECT_EQ(seq.status, verify::Status::Unfinished);
  auto par = verify::par_explore(sys, opts, 2);
  EXPECT_EQ(par.status, verify::Status::Unfinished);
}

}  // namespace
}  // namespace ccref

// COLLAPSE state-vector compression (verify/collapse.hpp): index-tuple
// storage must be observationally identical to raw storage — same verdicts,
// same Ok-status state/transition counts, same counterexample traces — across
// engines, symmetry, and the liveness/progress analyses, while the
// bytes actually pooled shrink on the asynchronous Table-3 configurations.
// Also pins the budget discipline: dictionaries charge the same MemoryBudget
// as the tuple pool, and exhaustion mid-insert (a component interned, the
// tuple refused) leaves every set consistent with its reservation.
#include <gtest/gtest.h>

#include "ltl/check.hpp"
#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"
#include "verify/collapse.hpp"
#include "verify/par_checker.hpp"
#include "verify/progress.hpp"
#include "verify/sharded_state_set.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using sem::RendezvousSystem;
using verify::CollapsedStateSet;
using verify::CompressionMode;
using verify::ShardedStateSet;
using verify::SymmetryMode;

// Explore to completion with the given storage, no trace.
template <class Sys>
verify::CheckResult check(const Sys& sys, CompressionMode compress,
                          SymmetryMode symmetry, unsigned jobs = 1) {
  verify::CheckOptions<Sys> opts;
  opts.want_trace = false;
  opts.compress = compress;
  opts.symmetry = symmetry;
  opts.memory_limit = 512u << 20;
  return jobs <= 1 ? verify::explore(sys, opts)
                   : verify::par_explore(sys, opts, jobs);
}

// ---- unit: the set itself --------------------------------------------------

std::vector<std::byte> bytes_of(std::initializer_list<int> vals) {
  std::vector<std::byte> b;
  for (int v : vals) b.push_back(static_cast<std::byte>(v));
  return b;
}

TEST(CollapsedStateSet, OffModeIsPassthrough) {
  CollapsedStateSet set(1 << 20, {.compress = CompressionMode::Off});
  auto s = bytes_of({1, 2, 3, 4});
  auto r = set.insert(s);
  ASSERT_EQ(r.outcome, InsertOutcome::Inserted);
  EXPECT_EQ(set.insert(s).outcome, InsertOutcome::AlreadyPresent);
  auto stored = set.at(r.index);
  EXPECT_TRUE(std::equal(s.begin(), s.end(), stored.begin(), stored.end()));
  EXPECT_EQ(set.raw_bytes(), s.size());
  EXPECT_EQ(set.stored_bytes(), s.size());
}

TEST(CollapsedStateSet, MultiComponentRoundTrip) {
  CollapsedStateSet set(1 << 20, {.compress = CompressionMode::Collapse});
  // Two components of class 0 and 1 plus an implicit trailing class-0 run.
  std::vector<ComponentMark> marks{{2, 0}, {5, 1}};
  std::vector<std::uint32_t> indices;
  std::vector<std::vector<std::byte>> states;
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b) {
      auto s = bytes_of({a, a + 1, b, b + 1, b + 2, 7});
      auto r = set.insert(s, marks);
      ASSERT_EQ(r.outcome, InsertOutcome::Inserted);
      indices.push_back(r.index);
      states.push_back(std::move(s));
    }
  EXPECT_EQ(set.size(), 16u);
  // 16 states share 4 + 4 dictionary entries; the raw bytes exceed what is
  // stored even at this toy size once the inputs repeat enough.
  for (std::size_t i = 0; i < states.size(); ++i) {
    auto stored = set.at(indices[i]);
    EXPECT_TRUE(std::equal(states[i].begin(), states[i].end(), stored.begin(),
                           stored.end()))
        << "state " << i;
    auto dup = set.insert(states[i], marks);
    EXPECT_EQ(dup.outcome, InsertOutcome::AlreadyPresent);
    EXPECT_EQ(dup.index, indices[i]);
  }
}

TEST(CollapsedStateSet, EmptyMarksAreRejected) {
  // No marks means the caller's sink recorded none (the checkers record
  // them only for a collapsing tier): interning the whole state as one
  // component would hide that behind a ratio of 1, so both sets refuse.
  auto s = bytes_of({9, 8, 7});
  EXPECT_DEATH(
      {
        CollapsedStateSet set(1 << 20,
                              {.compress = CompressionMode::Collapse});
        (void)set.insert(s);
      },
      "component marks");
  EXPECT_DEATH(
      {
        ShardedStateSet set(1 << 20, 2, /*track_parents=*/false,
                            {.compress = CompressionMode::Collapse});
        (void)set.insert(s);
      },
      "component marks");
  // The tiers that do not collapse never read marks.
  CollapsedStateSet off(1 << 20, {.compress = CompressionMode::Off});
  EXPECT_EQ(off.insert(s).outcome, InsertOutcome::Inserted);
}

TEST(CollapsedStateSet, MarksRecordedOnlyForCollapsingTiers) {
  // The checkers size their sinks by collapses(): only COLLAPSE over the
  // byte-storing tiers reads marks; hash compaction and the external tier
  // store fingerprints whatever `compress` says.
  EXPECT_TRUE(verify::StorageOptions{.compress = CompressionMode::Collapse}
                  .collapses());
  EXPECT_FALSE(verify::StorageOptions{}.collapses());
  EXPECT_FALSE((verify::StorageOptions{.compress = CompressionMode::Collapse,
                                       .hash_compact = true})
                   .collapses());
  verify::StorageOptions ext{.compress = CompressionMode::Collapse};
  ext.external.dir = "unused";
  EXPECT_FALSE(ext.collapses());

  // A sink that does not record keeps the same bytes and no marks.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  ComponentSink on, off(/*record=*/false);
  sys.encode(sys.initial(), on);
  sys.encode(sys.initial(), off);
  EXPECT_TRUE(std::equal(on.bytes().begin(), on.bytes().end(),
                         off.bytes().begin(), off.bytes().end()));
  EXPECT_EQ(on.marks().size(), static_cast<std::size_t>(sys.num_components()));
  EXPECT_TRUE(off.marks().empty());

  // End to end, both engines still collapse: the marks reach the set.
  for (unsigned jobs : {1u, 2u}) {
    auto col = check(sys, CompressionMode::Collapse, SymmetryMode::Off, jobs);
    ASSERT_EQ(col.status, verify::Status::Ok);
    EXPECT_LT(col.pool_bytes, col.raw_pool_bytes) << "jobs=" << jobs;
  }
}

std::vector<std::byte> wide_state(std::uint64_t id, std::size_t len = 32) {
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((id >> ((i % 8) * 8)) & 0xff);
  return b;
}

TEST(CollapsedStateSet, ExhaustionMidInsertLeavesSetConsistent) {
  // Tight budget: inserts eventually fail, possibly after interning some of
  // a state's components. The tuple set must never hold a partial tuple, the
  // budget must cover exactly what is held, and every accepted state must
  // still round-trip.
  CollapsedStateSet set(24 << 10, {.compress = CompressionMode::Collapse});
  std::vector<ComponentMark> marks{{8, 0}, {16, 1}, {24, 2}};
  std::vector<std::uint64_t> accepted;
  std::uint64_t id = 0;
  for (;; ++id) {
    auto r = set.insert(wide_state(id), marks);
    if (r.outcome == InsertOutcome::Exhausted) break;
    ASSERT_EQ(r.outcome, InsertOutcome::Inserted);
    ASSERT_EQ(r.index, accepted.size());
    accepted.push_back(id);
    ASSERT_LT(id, 100000u) << "limit never hit";
  }
  EXPECT_GT(accepted.size(), 50u);
  EXPECT_EQ(set.size(), accepted.size());
  EXPECT_LE(set.memory_used(), set.memory_limit());
  // The budget charges exactly the bytes the table, the order index and
  // the dictionaries hold, refused inserts included.
  EXPECT_EQ(set.budget().used(), set.memory_used());

  auto retry = set.insert(wide_state(id), marks);
  EXPECT_EQ(retry.outcome, InsertOutcome::Exhausted);

  for (std::size_t i = 0; i < accepted.size(); ++i) {
    auto s = wide_state(accepted[i]);
    auto r = set.insert(s, marks);
    ASSERT_EQ(r.outcome, InsertOutcome::AlreadyPresent);
    ASSERT_EQ(r.index, i);
    auto stored = set.at(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(
        std::equal(s.begin(), s.end(), stored.begin(), stored.end()));
  }
}

TEST(CollapsedStateSet, ShardedCollapseExhaustionConsistent) {
  // K compressed shards on one shared budget: after exhaustion every
  // accepted ref still resolves and the shared budget was never burst.
  ShardedStateSet set(48 << 10, 4, /*track_parents=*/false,
                      {.compress = CompressionMode::Collapse});
  std::vector<ComponentMark> marks{{8, 0}, {16, 1}, {24, 2}};
  std::vector<std::pair<std::uint64_t, ShardedStateSet::Ref>> accepted;
  for (std::uint64_t id = 0;; ++id) {
    auto r = set.insert(wide_state(id), marks);
    if (r.outcome == ShardedStateSet::Outcome::Exhausted) break;
    ASSERT_EQ(r.outcome, ShardedStateSet::Outcome::Inserted);
    accepted.push_back({id, r.ref});
    ASSERT_LT(id, 100000u);
  }
  EXPECT_GT(accepted.size(), 50u);
  EXPECT_LE(set.memory_used(), set.memory_limit());
  EXPECT_EQ(set.size(), accepted.size());
  for (auto& [id, ref] : accepted) {
    auto s = wide_state(id);
    auto r = set.insert(s, marks);
    ASSERT_EQ(r.outcome, ShardedStateSet::Outcome::AlreadyPresent);
    ASSERT_EQ(r.ref, ref);
    auto stored = set.at(ref);
    ASSERT_TRUE(
        std::equal(s.begin(), s.end(), stored.begin(), stored.end()));
  }
}

// ---- agreement: compress x {engine, symmetry} on the protocols ------------

void expect_compress_agreement(const ir::Protocol& p, int n,
                               const char* what) {
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, n);
  for (unsigned jobs : {1u, 4u}) {
    for (auto sym : {SymmetryMode::Off, SymmetryMode::Canonical}) {
      auto off = check(sys, CompressionMode::Off, sym, jobs);
      auto col = check(sys, CompressionMode::Collapse, sym, jobs);
      ASSERT_EQ(off.status, verify::Status::Ok) << what << " jobs=" << jobs;
      EXPECT_EQ(col.status, off.status) << what << " jobs=" << jobs;
      EXPECT_EQ(col.states, off.states) << what << " jobs=" << jobs;
      EXPECT_EQ(col.transitions, off.transitions) << what << " jobs=" << jobs;
      // Compression never inflates what the raw pool would have held.
      EXPECT_EQ(col.raw_pool_bytes, off.raw_pool_bytes)
          << what << " jobs=" << jobs;
    }
  }
}

TEST(Collapse, AgreesMigratory) {
  expect_compress_agreement(protocols::make_migratory(), 3, "migratory");
}

TEST(Collapse, AgreesInvalidate) {
  expect_compress_agreement(protocols::make_invalidate(), 2, "invalidate");
}

TEST(Collapse, AgreesWriteUpdate) {
  expect_compress_agreement(protocols::make_write_update(), 2, "writeupdate");
}

TEST(Collapse, AgreesLockServer) {
  expect_compress_agreement(protocols::make_lock_server(), 3, "lockserver");
}

TEST(Collapse, AgreesOnRendezvousSemantics) {
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 4);
  auto off = check(sys, CompressionMode::Off, SymmetryMode::Off);
  auto col = check(sys, CompressionMode::Collapse, SymmetryMode::Off);
  EXPECT_EQ(col.status, off.status);
  EXPECT_EQ(col.states, off.states);
  EXPECT_EQ(col.transitions, off.transitions);
}

// ---- the point of the feature: the pool shrinks ----------------------------

TEST(Collapse, CompressesAsyncMigratory) {
  // The async migratory state at N=3 is dominated by repeated remote and
  // channel components; collapse must at least halve the stored bytes
  // (the Table-3 N=4 run clears 3x — see BENCH_compress.json).
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  auto off = check(sys, CompressionMode::Off, SymmetryMode::Off);
  auto col = check(sys, CompressionMode::Collapse, SymmetryMode::Off);
  ASSERT_EQ(off.status, verify::Status::Ok);
  ASSERT_EQ(col.status, verify::Status::Ok);
  EXPECT_EQ(col.raw_pool_bytes, off.pool_bytes)
      << "raw accounting must mirror the uncompressed pool";
  EXPECT_GE(off.pool_bytes, 2 * col.pool_bytes)
      << "collapse stored " << col.pool_bytes << " vs raw "
      << off.pool_bytes;
}

// ---- traces, liveness, progress under compression --------------------------

TEST(Collapse, TraceIdenticalAcrossModes) {
  // Force a deterministic violation; the BFS order is identical in both
  // modes, so the rebuilt trace (which re-expands stored states under
  // Collapse) must match label for label.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::CheckResult results[2];
  int i = 0;
  for (auto mode : {CompressionMode::Off, CompressionMode::Collapse}) {
    verify::CheckOptions<AsyncSystem> opts;
    opts.compress = mode;
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

TEST(Collapse, LivenessAgreesUnderCompression) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::LivenessResult rs[2];
  int i = 0;
  for (auto mode : {CompressionMode::Off, CompressionMode::Collapse}) {
    verify::LivenessOptions lopts;
    lopts.fairness = verify::FairnessMode::Weak;
    lopts.compress = mode;
    rs[i++] = ltl::check_ltl(sys, "G F completion", lopts);
  }
  EXPECT_EQ(rs[1].status, rs[0].status);
  EXPECT_EQ(rs[1].states, rs[0].states);
  EXPECT_EQ(rs[1].transitions, rs[0].transitions);
}

TEST(Collapse, ProgressAgreesUnderCompression) {
  auto p = protocols::make_invalidate();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::ProgressResult rs[2];
  int i = 0;
  for (auto mode : {CompressionMode::Off, CompressionMode::Collapse}) {
    verify::ProgressOptions popts;
    popts.compress = mode;
    rs[i++] = verify::check_progress(sys, popts);
  }
  EXPECT_EQ(rs[1].status, rs[0].status);
  EXPECT_EQ(rs[1].states, rs[0].states);
  EXPECT_EQ(rs[1].transitions, rs[0].transitions);
  EXPECT_EQ(rs[1].doomed, rs[0].doomed);
  EXPECT_EQ(rs[1].completing_edges, rs[0].completing_edges);
}

TEST(Collapse, FlagParses) {
  EXPECT_EQ(verify::parse_compression("off"), CompressionMode::Off);
  EXPECT_EQ(verify::parse_compression("collapse"), CompressionMode::Collapse);
  EXPECT_FALSE(verify::parse_compression("zip").has_value());
  EXPECT_STREQ(verify::to_string(CompressionMode::Collapse), "collapse");
}

}  // namespace
}  // namespace ccref

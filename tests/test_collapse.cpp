// COLLAPSE state-vector compression (verify/collapse.hpp): index-tuple
// storage must be observationally identical to raw storage — same verdicts,
// same Ok-status state/transition counts, same counterexample traces — across
// engines, symmetry, and the liveness/progress analyses, while the
// bytes actually pooled shrink on the asynchronous Table-3 configurations.
// Also pins the budget discipline: dictionaries charge the same MemoryBudget
// as the tuple pool, and exhaustion mid-insert (a component interned, the
// tuple refused) leaves every set consistent with its reservation.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "ltl/check.hpp"
#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "support/rng.hpp"
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
    std::vector<std::byte> scratch;
    auto stored = set.at(ref, scratch);
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

// ---- index reuse: successors copy their parent's untouched indices ---------

std::vector<std::byte> owned(std::span<const std::byte> b) {
  return {b.begin(), b.end()};
}

// Walk the BFS of `sys` and, for every edge, collapse the successor twice:
// once reusing its parent's tuple and the edge's touched set, once in full.
// A standalone interner must give the same bytes both ways. The sequential
// and the sharded set (driven by one thread) see the same interning order
// as that interner, so the tuple each stores must be that same byte string,
// and a second, full-collapse insert must find the record the reused
// insert landed on.
void expect_reuse_matches_full_collapse(const AsyncSystem& sys,
                                        const char* what) {
  SCOPED_TRACE(what);
  const verify::StorageOptions st{.compress = CompressionMode::Collapse};
  CollapsedStateSet seq(256u << 20, st);
  ShardedStateSet par(256u << 20, 4, /*track_parents=*/false, st);
  verify::MemoryBudget budget(256u << 20);
  verify::CollapseStructure structure;
  verify::ComponentInterner interner(budget, structure);

  ComponentSink sink;
  sys.encode(sys.initial(), sink);
  std::vector<std::byte> reused, full, par_tuple;
  ASSERT_TRUE(interner.collapse(sink.bytes(), sink.marks(), full));
  ASSERT_EQ(seq.insert(sink.bytes(), sink.marks()).outcome,
            InsertOutcome::Inserted);
  auto root = par.insert(sink.bytes(), sink.marks());
  ASSERT_EQ(root.outcome, InsertOutcome::Inserted);
  std::vector<std::vector<std::byte>> tuples{full};  // by BFS index
  std::vector<ShardedStateSet::Ref> refs{root.ref};

  auto state = sys.initial();
  auto scratch = state;
  sem::Label label;
  std::vector<std::byte> parent;
  std::vector<ComponentMark> marks;
  verify::ParentTuple own_pt, seq_pt, par_pt;
  std::size_t edges = 0, spliced = 0;
  for (std::uint32_t cursor = 0; cursor < seq.size(); ++cursor) {
    parent = owned(seq.at(cursor));
    ByteSource src(parent);
    sys.decode_into(src, state, &marks);
    own_pt.load(tuples[cursor]);
    seq_pt.load(seq.tuple_at(cursor));
    par_pt.load(par.tuple_of(refs[cursor]));
    ASSERT_EQ(own_pt.ends.size(), marks.size());
    verify::detail::for_each_successor(
        sys, state, scratch, sem::LabelMode::Quiet, label,
        [&](auto& succ, sem::Label&, ComponentSet& touched) {
          ++edges;
          spliced += !touched.all;
          verify::detail::encode_successor(sys, succ, touched,
                                           SymmetryMode::Off, parent, marks,
                                           sink);
          EXPECT_TRUE(interner.collapse(sink.bytes(), sink.marks(), reused,
                                        {&own_pt, touched}));
          EXPECT_TRUE(interner.collapse(sink.bytes(), sink.marks(), full));
          EXPECT_EQ(reused, full) << "edge " << edges;

          auto a = seq.insert(sink.bytes(), sink.marks(), cursor,
                              {&seq_pt, touched});
          auto b = seq.insert(sink.bytes(), sink.marks());
          EXPECT_EQ(b.outcome, InsertOutcome::AlreadyPresent);
          EXPECT_EQ(b.index, a.index);
          EXPECT_EQ(owned(seq.tuple_at(a.index)), full) << "edge " << edges;

          auto c = par.insert(sink.bytes(), sink.marks(),
                              ShardedStateSet::kNoParent, {&par_pt, touched},
                              &par_tuple);
          EXPECT_EQ(par_tuple, full) << "edge " << edges;
          auto d = par.insert(sink.bytes(), sink.marks());
          EXPECT_EQ(d.outcome, InsertOutcome::AlreadyPresent);
          EXPECT_EQ(d.ref, c.ref);
          EXPECT_EQ(owned(par.tuple_of(c.ref)), full) << "edge " << edges;

          EXPECT_EQ(a.outcome == InsertOutcome::Inserted,
                    c.outcome == InsertOutcome::Inserted);
          if (a.outcome == InsertOutcome::Inserted) {
            EXPECT_EQ(a.index, tuples.size());
            tuples.push_back(full);
            refs.push_back(c.ref);
          }
          return !::testing::Test::HasFailure();
        });
    ASSERT_FALSE(::testing::Test::HasFailure()) << "at state " << cursor;
  }
  // The walk is the whole reachable set, and most edges took the splice.
  auto res = check(sys, CompressionMode::Off, SymmetryMode::Off);
  EXPECT_EQ(seq.size(), res.states);
  EXPECT_EQ(par.size(), res.states);
  EXPECT_EQ(edges, res.transitions);
  EXPECT_GT(spliced * 2, edges);
}

TEST(CollapseReuse, EveryEdgeMatchesAFullCollapseInvalidateN3) {
  auto p = protocols::make_invalidate();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  expect_reuse_matches_full_collapse(AsyncSystem(rp, 3), "invalidate N=3");
}

TEST(CollapseReuse, EveryEdgeMatchesAFullCollapseMigratoryN3) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  expect_reuse_matches_full_collapse(AsyncSystem(rp, 3), "migratory N=3");
}

TEST(CollapseReuse, ParallelJobsKeepSequentialCountsAndPoolBytes) {
  // One interner for all shards: the dictionaries hold exactly the
  // sequential run's components, so only the order of the dense indices
  // (and with it a few varint lengths) can differ.
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  auto seq = check(sys, CompressionMode::Collapse, SymmetryMode::Off);
  ASSERT_EQ(seq.status, verify::Status::Ok);
  for (unsigned jobs : {1u, 2u, 4u}) {
    verify::CheckOptions<AsyncSystem> opts;
    opts.want_trace = false;
    opts.compress = CompressionMode::Collapse;
    opts.memory_limit = 512u << 20;
    auto par = verify::par_explore(sys, opts, jobs);
    ASSERT_EQ(par.status, verify::Status::Ok) << "jobs=" << jobs;
    EXPECT_EQ(par.states, seq.states) << "jobs=" << jobs;
    EXPECT_EQ(par.transitions, seq.transitions) << "jobs=" << jobs;
    EXPECT_EQ(par.raw_pool_bytes, seq.raw_pool_bytes) << "jobs=" << jobs;
    EXPECT_NEAR(static_cast<double>(par.pool_bytes),
                static_cast<double>(seq.pool_bytes), 0.01 * seq.pool_bytes)
        << "jobs=" << jobs;
  }
}

// ---- the payoff: COLLAPSE finishes where full storage cannot ---------------

TEST(Collapse, BreaksTheRamWallSequentialAndParallel) {
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

  opts.compress = CompressionMode::Collapse;
  auto collapsed = verify::explore(sys, opts);
  EXPECT_EQ(collapsed.status, verify::Status::Ok);
  EXPECT_EQ(collapsed.states, reference.states);
  EXPECT_EQ(collapsed.transitions, reference.transitions);
  EXPECT_EQ(collapsed.omission_probability, 0.0);
  EXPECT_LE(collapsed.memory_bytes, opts.memory_limit);

  auto par = verify::par_explore(sys, opts, 4);
  EXPECT_EQ(par.status, verify::Status::Ok);
  EXPECT_EQ(par.states, reference.states);
  EXPECT_EQ(par.transitions, reference.transitions);
  EXPECT_LE(par.memory_bytes, opts.memory_limit);
}

TEST(ComponentInterner, ThreadsShareOneDenseIndexPerValue) {
  // K threads collapse one seeded stream of three-component states into
  // one interner. The classes draw from 40, 600 and 6,000 values, so the
  // larger dictionaries grow while every thread probes and inserts.
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kStates = 20000;
  const std::size_t kValues[3] = {40, 600, 6000};
  auto value = [](unsigned cls, std::uint64_t v) {
    // 1 to 9 bytes, distinct per (class, v).
    std::vector<std::byte> b(1 + v % 9);
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = static_cast<std::byte>((v >> (8 * (i % 4))) + cls + i);
    b[0] = static_cast<std::byte>(v);
    b.back() = static_cast<std::byte>(v >> 8);
    return b;
  };
  Rng rng(20261019);
  std::vector<std::vector<std::byte>> states;
  std::vector<std::vector<ComponentMark>> marks;
  // Components keyed as strings: distinct values per class.
  auto key = [](std::span<const std::byte> b) {
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  };
  std::unordered_set<std::string> distinct[3];
  for (std::size_t i = 0; i < kStates; ++i) {
    std::vector<std::byte> s;
    std::vector<ComponentMark> m;
    for (unsigned cls = 0; cls < 3; ++cls) {
      auto comp = value(cls, rng.below(kValues[cls]));
      distinct[cls].insert(key(comp));
      s.insert(s.end(), comp.begin(), comp.end());
      m.push_back({static_cast<std::uint32_t>(s.size()),
                   static_cast<std::uint8_t>(cls)});
    }
    states.push_back(std::move(s));
    marks.push_back(std::move(m));
  }

  verify::MemoryBudget budget(64u << 20);
  verify::CollapseStructure structure;
  verify::ComponentInterner interner(budget, structure);
  std::vector<std::vector<std::vector<std::byte>>> tuples(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Half the threads walk the stream backwards, so misses race both
      // on the same values and on different ones.
      auto& out = tuples[t];
      out.resize(kStates);
      for (std::size_t k = 0; k < kStates; ++k) {
        const std::size_t i = t % 2 == 0 ? k : kStates - 1 - k;
        if (!interner.collapse(states[i], marks[i], out[i])) out[i].clear();
      }
    });
  for (auto& th : threads) th.join();

  // Every thread got the same tuple for every state.
  for (unsigned t = 1; t < kThreads; ++t)
    for (std::size_t i = 0; i < kStates; ++i)
      ASSERT_EQ(tuples[t][i], tuples[0][i]) << "thread " << t << " state " << i;
  // One dense index per distinct value, the indices dense in [0, size),
  // and every tuple expands back to its state.
  std::unordered_map<std::string, std::uint64_t> index_of[3];
  std::set<std::uint64_t> indices[3];
  std::vector<std::byte> scratch;
  for (std::size_t i = 0; i < kStates; ++i) {
    ByteSource src(tuples[0][i]);
    std::uint32_t start = 0;
    for (unsigned cls = 0; cls < 3; ++cls) {
      const std::uint64_t dense = src.varint();
      const auto comp = std::span(states[i]).subspan(
          start, marks[i][cls].end - start);
      start = marks[i][cls].end;
      auto [it, fresh] = index_of[cls].emplace(key(comp), dense);
      ASSERT_EQ(it->second, dense) << "state " << i << " class " << cls;
      if (fresh) {
        ASSERT_TRUE(indices[cls].insert(dense).second);
      }
    }
    ASSERT_TRUE(src.exhausted());
    ASSERT_EQ(owned(interner.expand(tuples[0][i], scratch)), states[i]);
  }
  for (unsigned cls = 0; cls < 3; ++cls) {
    EXPECT_EQ(interner.size(static_cast<std::uint8_t>(cls)),
              distinct[cls].size());
    EXPECT_EQ(indices[cls].size(), distinct[cls].size());
    EXPECT_EQ(*indices[cls].rbegin() + 1, distinct[cls].size());
  }
  EXPECT_EQ(budget.used(), interner.charged());
}

TEST(Collapse, FlagParses) {
  EXPECT_EQ(verify::parse_compression("off"), CompressionMode::Off);
  EXPECT_EQ(verify::parse_compression("collapse"), CompressionMode::Collapse);
  EXPECT_FALSE(verify::parse_compression("zip").has_value());
  EXPECT_STREQ(verify::to_string(CompressionMode::Collapse), "collapse");
}

}  // namespace
}  // namespace ccref

// Lock-free concurrent visited-state set: K CAS-based shards drawing on
// one shared MemoryBudget.
//
// This keeps the multi-core-SPIN sharding geometry — a state's 64-bit
// hash picks the shard (high bits; each shard's open-addressing table
// uses the low bits, so the two choices stay independent) — but shards
// are now a STRIPING detail, not a lock domain: each shard is a
// RecordTable whose insert-if-absent is a claim-by-CAS /
// publish-with-release protocol (support/atomic_table.hpp), so any
// number of threads insert into the same shard without serializing.
// More shards still help (they split the resize epochs and spread the
// allocation bump counters), which is why the parallel checker runs one
// per worker rather than jobs*8 mutex domains.
//
// Under CompressionMode::Collapse the set owns ONE ComponentInterner for
// all shards (its dictionary hits are lock-free probes), so a dense index
// names the same component in every shard. A state is collapsed once, and
// the hash of its index tuple picks the shard and is the table hash: the
// raw encoding is never hashed. A successor's insert can reuse its
// parent's indices (TupleReuse) because the parent's tuple means the same
// thing wherever the successor lands.
//
// Because symmetry reduction canonicalizes before hashing, all members
// of an orbit land in the same shard and dedupe there — the reduction
// needs no cross-shard coordination. A state's Ref is (shard, record
// offset): offsets are stable and never reused, so Refs are global
// identities; the parallel checker stores BFS parents inline in the
// record (no side arrays to lock), and one trace rebuild
// (checker.hpp rebuild_trace) walks them as it walks the sequential set's.
//
// Hash compaction: each shard is a FingerprintTable. It holds no record,
// so a state's Ref is (writer, n): the inserting worker and the fresh
// states it inserted before, whose fingerprints and parents a traced run
// keeps by n in that writer's budget-charged indices.
//
// The set holds the RAM tiers only (full, Collapse, hash compaction). The
// external disk tier has one home, the sequential CollapsedStateSet:
// par_explore hands --external runs to explore(), so this set never sees
// an external policy.
//
// Concurrency contract:
//   * insert() may be called from any thread at any time (each writer id
//     from one thread at a time under hash compaction), and at(),
//     tuple_of() and parent_of() for any Ref a completed insert returned
//     (records never move). Under Collapse, at() expands the record's
//     tuple through the dictionaries into the caller's scratch: every
//     index in a published record was interned before the record was
//     published (DESIGN.md §4.6 gives the happens-before chain). Under
//     hash compaction, parent_of() and fingerprint_of() wait for quiescence.
//   * The byte counters (stored_bytes() and the rest) are exact under
//     quiescence (no concurrent insert).
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "verify/collapse.hpp"

namespace ccref::verify {

class ShardedStateSet {
 public:
  using Outcome = InsertOutcome;

  /// Global identity of a stored state: shard plus record byte offset
  /// inside that shard's pool (stable, never reused; NOT dense). Under hash
  /// compaction: writer plus its count of fresh states before this one.
  struct Ref {
    std::uint32_t shard = 0;
    std::uint32_t index = 0;

    friend bool operator==(const Ref&, const Ref&) = default;
  };

  /// Packed Ref for parent links; kNoParent marks the root.
  static constexpr std::uint64_t kNoParent = ~0ull;
  [[nodiscard]] static constexpr std::uint64_t pack(Ref r) {
    return (static_cast<std::uint64_t>(r.shard) << 32) | r.index;
  }
  [[nodiscard]] static constexpr Ref unpack(std::uint64_t p) {
    return {static_cast<std::uint32_t>(p >> 32),
            static_cast<std::uint32_t>(p)};
  }

  struct InsertResult {
    Outcome outcome;
    Ref ref;  // valid unless Exhausted
  };

  /// One writer per worker, `workers` of them (at least one). The shard
  /// count is `workers` rounded up to a power of two and clamped to
  /// [1, kMaxShards]: shards only stripe, so any number of writers share
  /// them. `track_parents` stores one packed Ref inline per
  /// record for trace reconstruction. Under CompressionMode::Collapse the
  /// shards store index tuples of the set's one interner. All construction
  /// floors shrink until they fit a quarter of the budget, so even tiny
  /// limits leave headroom for actual states.
  ///
  /// Storage-tier routing (compression, hash compaction) is
  /// threaded to every shard and dictionary; `st` must not enable the
  /// external tier.
  ShardedStateSet(std::size_t memory_limit_bytes, unsigned workers,
                  bool track_parents = false, const StorageOptions& st = {})
      : budget_(memory_limit_bytes),
        st_(st),
        fp_(st.fingerprint != nullptr ? st.fingerprint : &default_fingerprint),
        track_parents_(track_parents),
        collapses_(st.collapses()),
        interner_(budget_, structure_) {
    CCREF_REQUIRE(!st_.external.enabled());
    unsigned n = 1;
    while (n < workers && n < kMaxShards) n <<= 1;
    shard_bits_ = 0;
    for (unsigned v = n; v > 1; v >>= 1) ++shard_bits_;

    for (unsigned i = 0; i < std::max(workers, 1u); ++i)
      writers_.push_back(std::make_unique<Writer>(budget_));
    const auto layout = TableLayout::fit(memory_limit_bytes, n);
    const RecordLink link =
        track_parents ? RecordLink::Parent : RecordLink::None;
    for (unsigned i = 0; i < n; ++i) {
      if (st_.hash_compact)
        fingerprints_.push_back(
            std::make_unique<FingerprintTable<MemoryBudget>>(budget_,
                                                             layout.slots));
      else
        shards_.push_back(std::make_unique<RecordTable>(
            budget_, layout.slots, layout.chunk0, link));
    }
  }

  /// Thread-safe lock-free insert; `parent` is recorded for fresh states
  /// when parent tracking is on (pass pack(ref) of the BFS predecessor,
  /// kNoParent for the root). `marks` carries the component boundaries
  /// of `state` (from a ComponentSink) and `reuse` the parent's tuple and
  /// the edge's touched components; `tuple` is the caller's buffer for the
  /// state's index tuple (a worker reuses one for every insert; null: a
  /// fresh one per call). The three are read only under Collapse. A
  /// duplicate insert never overwrites the recorded parent (only the
  /// claiming thread ever writes the record). `writer` names the inserting
  /// worker, below writer_count(), whose books count the fresh state.
  [[nodiscard]] InsertResult insert(std::span<const std::byte> state,
                                    std::span<const ComponentMark> marks = {},
                                    std::uint64_t parent = kNoParent,
                                    const TupleReuse& reuse = {},
                                    std::vector<std::byte>* tuple = nullptr,
                                    unsigned writer = 0) {
    CCREF_REQUIRE(writer < writers_.size());
    if (st_.hash_compact) return insert_compacted(state, parent, writer);
    // Under Collapse the record is the index tuple, collapsed once: its hash
    // picks the shard and is the table hash, as equal states have equal
    // tuples.
    std::vector<std::byte> own;
    std::span<const std::byte> key = state;
    if (collapses_) {
      std::vector<std::byte>& t = tuple != nullptr ? *tuple : own;
      if (!interner_.collapse(state, marks, t, reuse))
        return {Outcome::Exhausted, {}};
      key = t;
    }
    const std::uint64_t h = hash_bytes(key);
    const std::uint32_t si = shard_of(h);
    const auto r = shards_[si]->insert(key, h, parent);
    if (r.outcome == Outcome::Inserted)
      writers_[writer]->raw_bytes.fetch_add(state.size(),
                                            std::memory_order_relaxed);
    return {r.outcome, {si, r.ref}};
  }

  /// Collapse only: the stored index tuple of `r`, safe for any Ref a
  /// completed insert returned — the span a worker loads into the
  /// ParentTuple its successors' inserts reuse.
  [[nodiscard]] std::span<const std::byte> tuple_of(Ref r) const {
    CCREF_REQUIRE(collapses_);
    return shards_[r.shard]->at(r.index);
  }

  /// Bytes of a stored state, safe for any Ref a completed insert
  /// returned. Full storage: the record itself, a stable span. Collapse:
  /// the tuple expanded into `scratch`, valid until `scratch` is next
  /// written. Not under hash compaction, which keeps no bytes.
  [[nodiscard]] std::span<const std::byte> at(
      Ref r, std::vector<std::byte>& scratch) const {
    if (!collapses_) return shards_[r.shard]->at(r.index);
    return interner_.expand(shards_[r.shard]->at(r.index), scratch);
  }

  /// BFS parent recorded at insertion; nullopt for the root.
  [[nodiscard]] std::optional<Ref> parent_of(Ref r) const {
    CCREF_REQUIRE(track_parents_);
    const std::uint64_t p = st_.hash_compact
                                ? writers_[r.shard]->parents[r.index]
                                : shards_[r.shard]->link_at(r.index);
    if (p == kNoParent) return std::nullopt;
    return unpack(p);
  }

  /// Total states across shards (exact whenever no insert is mid-flight).
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& sh : shards_) total += sh->size();
    for (const auto& t : fingerprints_) total += t->size();
    return total;
  }

  /// Bytes charged to the set's budget: its own tables, pools and
  /// dictionaries plus whatever else the run charged to it (the parallel
  /// engine's frontier).
  [[nodiscard]] std::size_t memory_used() const { return budget_.used(); }

  /// Bytes the set's own structures hold: the shards' slots and pools and
  /// the dictionaries. Exact under quiescence.
  [[nodiscard]] std::size_t charged() const {
    std::size_t total = interner_.charged();
    for (const auto& sh : shards_) total += sh->charged();
    for (const auto& t : fingerprints_) total += t->charged();
    for (const auto& w : writers_)
      total += w->fingerprints.charged() + w->parents.charged();
    return total;
  }

  /// The one budget of the run, for structures outside the set (the
  /// parallel engine's frontier) to charge.
  [[nodiscard]] MemoryBudget& budget() { return budget_; }

  [[nodiscard]] std::size_t memory_limit() const { return budget_.limit(); }
  [[nodiscard]] unsigned shard_count() const { return 1u << shard_bits_; }
  [[nodiscard]] unsigned writer_count() const {
    return static_cast<unsigned>(writers_.size());
  }

  /// Quiescent-only: summed raw encoding bytes of all stored states.
  [[nodiscard]] std::size_t raw_bytes() const {
    std::size_t total = 0;
    for (const auto& w : writers_)
      total += w->raw_bytes.load(std::memory_order_relaxed);
    return total;
  }

  /// Quiescent-only: bytes actually spent storing states (the shards'
  /// payloads or fingerprint tables, plus the dictionary footprint).
  [[nodiscard]] std::size_t stored_bytes() const {
    std::size_t total = interner_.charged();
    for (const auto& sh : shards_) total += sh->payload_bytes();
    for (const auto& t : fingerprints_) total += t->charged();
    return total;
  }

  /// Quiescent-only: chunk bytes held but never occupied by records.
  [[nodiscard]] std::size_t waste_bytes() const {
    std::size_t total = interner_.waste_bytes();
    for (const auto& sh : shards_) total += sh->waste_bytes();
    return total;
  }

  /// Do traces replay by fingerprint? True under hash compaction, which
  /// keeps no state bytes to replay against.
  [[nodiscard]] bool fingerprinted() const { return st_.hash_compact; }

  /// Does an insert read its component marks (StorageOptions::collapses)?
  [[nodiscard]] bool collapses() const { return collapses_; }

  /// The resolved fingerprint function this set hashes with.
  [[nodiscard]] FingerprintFn fingerprint_fn() const { return fp_; }

  /// Fingerprint of a state under hash compaction (keep_fingerprints).
  [[nodiscard]] std::uint64_t fingerprint_of(Ref r) const {
    CCREF_REQUIRE(st_.keep_fingerprints);
    return writers_[r.shard]->fingerprints[r.index];
  }

 private:
  static constexpr unsigned kMaxShards = 256;

  /// What one worker keeps of the fresh states it inserts: their summed
  /// encoding sizes and, under hash compaction (by that worker alone),
  /// their count and each one's fingerprint and parent.
  struct Writer {
    explicit Writer(MemoryBudget& budget)
        : fingerprints(budget), parents(budget) {}
    std::atomic<std::size_t> raw_bytes{0};
    std::uint32_t fresh = 0;  // the n of the next fresh state's Ref
    ChunkedIndex<MemoryBudget, std::uint64_t> fingerprints;  // by n
    ChunkedIndex<MemoryBudget, std::uint64_t> parents;       // packed, by n
  };

  [[nodiscard]] InsertResult insert_compacted(std::span<const std::byte> state,
                                              std::uint64_t parent,
                                              unsigned writer) {
    // The fingerprint picks the table (high bits) and is the word stored
    // there (placed by its low bits). Admit the log slots before the
    // probe: a table cannot take a fingerprint back.
    const std::uint64_t fp = fp_(state);
    Writer& w = *writers_[writer];
    if ((st_.keep_fingerprints && !w.fingerprints.reserve(w.fresh)) ||
        (track_parents_ && !w.parents.reserve(w.fresh)))
      return {Outcome::Exhausted, {}};
    const Outcome o = fingerprints_[shard_of(fp)]->insert(fp);
    if (o != Outcome::Inserted) return {o, {}};
    if (st_.keep_fingerprints) w.fingerprints.set(w.fresh, fp);
    if (track_parents_) w.parents.set(w.fresh, parent);
    w.raw_bytes.fetch_add(state.size(), std::memory_order_relaxed);
    return {o, {writer, w.fresh++}};
  }

  [[nodiscard]] std::uint32_t shard_of(std::uint64_t h) const {
    return static_cast<std::uint32_t>(shard_bits_ == 0 ? 0
                                                       : h >> (64 - shard_bits_));
  }

  MemoryBudget budget_;
  StorageOptions st_;
  FingerprintFn fp_ = &default_fingerprint;
  unsigned shard_bits_ = 0;
  bool track_parents_;
  bool collapses_;  // st_.collapses(), read on every insert
  CollapseStructure structure_;
  ComponentInterner interner_;  // Collapse only; idle (no dictionary) else
  // Per shard: a table of records or, under hash compaction, fingerprints.
  std::vector<std::unique_ptr<RecordTable>> shards_;
  std::vector<std::unique_ptr<FingerprintTable<MemoryBudget>>> fingerprints_;
  std::vector<std::unique_ptr<Writer>> writers_;
};

}  // namespace ccref::verify

// Lock-free concurrent visited-state set: K CAS-based shards drawing on
// one shared MemoryBudget.
//
// This keeps the multi-core-SPIN sharding geometry — a state's 64-bit
// hash picks the shard (high bits; each shard's open-addressing table
// uses the low bits, so the two choices stay independent) — but shards
// are now a STRIPING detail, not a lock domain: each shard is a
// ConcurrentCollapsedSet whose insert-if-absent is a claim-by-CAS /
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
// Concurrency contract:
//   * insert() may be called from any thread at any time, and tuple_of()
//     for any Ref a completed insert returned (records never move).
//   * at() / parent_of() / stored_bytes() require quiescence (no
//     concurrent insert) — the checker only calls them after workers
//     stop. Under Collapse, at() expands into one scratch buffer: a
//     returned span is valid until the next at() on the set; callers that
//     need several states at once copy.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "support/thread_pool.hpp"
#include "verify/collapse.hpp"
#include "verify/external_set.hpp"

namespace ccref::verify {

class ShardedStateSet {
 public:
  using Outcome = InsertOutcome;

  /// Global identity of a stored state: shard plus record byte offset
  /// inside that shard's pool (stable, never reused; NOT dense).
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
    Ref ref;  // valid unless Exhausted or Deferred
  };

  /// One state admitted by an external-tier resolve pass: its global Ref
  /// plus an owned copy of the encoded bytes, ready to become a frontier
  /// item. (External records live on disk; the engine never reads them
  /// back through at().)
  struct FreshState {
    Ref ref;
    std::vector<std::byte> bytes;
  };

  /// `shard_count` is rounded up to a power of two and clamped to
  /// [1, kMaxShards]. `track_parents` stores one packed Ref inline per
  /// record for trace reconstruction (the external tier keeps parents in
  /// its order logs, under keep_fingerprints). Under
  /// CompressionMode::Collapse the shards store index tuples of the set's
  /// one interner. All construction floors shrink until they fit a quarter
  /// of the budget, so even tiny limits leave headroom for actual states.
  ///
  /// Storage-tier routing (compression, hash compaction, spill policy) is
  /// threaded to every shard and dictionary.
  ShardedStateSet(std::size_t memory_limit_bytes, unsigned shard_count,
                  bool track_parents = false, const StorageOptions& st = {})
      : budget_(memory_limit_bytes),
        st_(st),
        fp_(st.fingerprint != nullptr ? st.fingerprint : &default_fingerprint),
        track_parents_(track_parents),
        collapses_(st.collapses()),
        interner_(budget_, structure_, st.spill) {
    unsigned n = 1;
    while (n < shard_count && n < kMaxShards) n <<= 1;
    shard_bits_ = 0;
    for (unsigned v = n; v > 1; v >>= 1) ++shard_bits_;

    if (st_.external.enabled()) {
      // External tier: each shard runs its own single-partition
      // ExternalVisitedSet behind a spinlock — the shard hash (high
      // fingerprint bits) already plays the partition role, so merges of
      // different shards proceed on different worker threads while the
      // rest of the pool keeps exploring. No CAS tables are built at all:
      // the whole budget is left to the caches, buffers and sort scratch
      // that configure() splits n ways.
      auto cfg = ExternalVisitedSet::configure(st_.external,
                                               memory_limit_bytes, n);
      cfg.partitions = 1;
      cfg.keep_order_log = st_.keep_fingerprints;
      ext_shards_.reserve(n);
      ext_ok_ = true;
      for (unsigned i = 0; i < n; ++i) {
        auto es = std::make_unique<ExtShard>(budget_, cfg);
        ext_ok_ = ext_ok_ && es->set.ok();
        ext_shards_.push_back(std::move(es));
      }
      return;
    }

    const auto layout =
        ConcurrentCollapsedSet::Layout::fit(memory_limit_bytes, n);
    const RecordLink link =
        track_parents ? RecordLink::Parent : RecordLink::None;
    shards_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
      shards_.push_back(
          std::make_unique<ConcurrentCollapsedSet>(budget_, st_, link, layout));
  }

  /// Thread-safe lock-free insert; `parent` is recorded for fresh states
  /// when parent tracking is on (pass pack(ref) of the BFS predecessor,
  /// kNoParent for the root). `marks` carries the component boundaries
  /// of `state` (from a ComponentSink) and `reuse` the parent's tuple and
  /// the edge's touched components; both are read only under Collapse. A
  /// duplicate insert never overwrites the recorded parent (only the
  /// claiming thread ever writes the record).
  [[nodiscard]] InsertResult insert(std::span<const std::byte> state,
                                    std::span<const ComponentMark> marks = {},
                                    std::uint64_t parent = kNoParent,
                                    std::vector<FreshState>* fresh = nullptr,
                                    const TupleReuse& reuse = {}) {
    if (collapses_) {
      // Collapse once; the tuple's hash picks the shard and is the table
      // hash, since equal states have equal tuples.
      static thread_local std::vector<std::byte> tuple;
      if (!interner_.collapse(state, marks, tuple, reuse))
        return {Outcome::Exhausted, {}};
      const std::uint64_t h = hash_bytes(tuple);
      const std::uint32_t si = shard_of(h);
      auto r = shards_[si]->insert(state, h, parent, tuple);
      return {r.outcome, {si, r.ref}};
    }
    // Under hash compaction (and the external tier, which stores nothing
    // BUT fingerprints) the run's FingerprintFn doubles as the shard
    // hash: computed once, it picks the shard AND becomes the stored
    // fingerprint (shards use the high bits, tables the low bits).
    const std::uint64_t h = (st_.hash_compact || !ext_shards_.empty())
                                ? fp_(state)
                                : hash_bytes(state);
    const std::uint32_t si = shard_of(h);
    if (!ext_shards_.empty())
      return insert_external(si, h, parent, state, fresh);
    auto r = shards_[si]->insert(state, h, parent);
    return {r.outcome, {si, r.ref}};
  }

  /// Collapse only: the stored index tuple of `r`, safe for any Ref a
  /// completed insert returned — the span a worker loads into the
  /// ParentTuple its successors' inserts reuse.
  [[nodiscard]] std::span<const std::byte> tuple_of(Ref r) const {
    CCREF_REQUIRE(collapses_);
    return shards_[r.shard]->at(r.index);
  }

  /// External tier only: run delayed duplicate detection across shards.
  /// `only_ripe` restricts the pass to shards past their watermark; the
  /// final drain passes false. Admitted states are appended to `fresh`
  /// for the caller to re-enqueue. Thread-safe (per-shard locks), but the
  /// drain protocol in par_explore serializes full drains.
  [[nodiscard]] ResolveOutcome resolve_external(bool only_ripe,
                                                std::vector<FreshState>& fresh) {
    CCREF_REQUIRE(!ext_shards_.empty());
    bool any = false;
    for (std::uint32_t si = 0; si < ext_shards_.size(); ++si) {
      ExtShard& es = *ext_shards_[si];
      std::lock_guard<SpinLock> lock(es.mu);
      switch (resolve_shard_locked(si, es, only_ripe, fresh)) {
        case ResolveOutcome::Fresh: any = true; break;
        case ResolveOutcome::Drained: break;
        case ResolveOutcome::Failed: return ResolveOutcome::Failed;
      }
    }
    return any ? ResolveOutcome::Fresh : ResolveOutcome::Drained;
  }

  /// External tier: states queued for delayed duplicate detection but not
  /// yet resolved. Exact whenever no insert is mid-flight (in_flight == 0
  /// in the parallel engine), which is the only point the termination
  /// detector reads it.
  [[nodiscard]] std::size_t external_pending() const {
    return ext_pending_.load(std::memory_order_acquire);
  }

  /// Quiescent-only: bytes held on disk by the external tier.
  [[nodiscard]] std::size_t external_bytes() const {
    std::size_t total = 0;
    for (const auto& es : ext_shards_) total += es->set.disk_bytes();
    return total;
  }

  /// Quiescent-only: sorted-run merge passes across shards.
  [[nodiscard]] std::size_t merge_passes() const {
    std::size_t total = 0;
    for (const auto& es : ext_shards_) total += es->set.merge_passes();
    return total;
  }

  /// Quiescent-only: bytes those merge passes read and wrote.
  [[nodiscard]] std::size_t merge_bytes_read() const {
    std::size_t total = 0;
    for (const auto& es : ext_shards_) total += es->set.merge_bytes_read();
    return total;
  }
  [[nodiscard]] std::size_t merge_bytes_written() const {
    std::size_t total = 0;
    for (const auto& es : ext_shards_) total += es->set.merge_bytes_written();
    return total;
  }

  /// Quiescent-only: bytes of a stored state. Not available under the
  /// external tier (records live on disk; traces replay by fingerprint).
  [[nodiscard]] std::span<const std::byte> at(Ref r) const {
    CCREF_REQUIRE(ext_shards_.empty());
    if (!collapses_) return shards_[r.shard]->at(r.index);
    return interner_.expand(shards_[r.shard]->at(r.index), scratch_);
  }

  /// Quiescent-only: BFS parent recorded at insertion; nullopt for the
  /// root. Under the external tier this reads the shard's order log.
  [[nodiscard]] std::optional<Ref> parent_of(Ref r) const {
    std::uint64_t p = 0;
    if (!ext_shards_.empty()) {
      p = ext_shards_[r.shard]->set.parent_at(r.index);
    } else {
      CCREF_REQUIRE(track_parents_);
      p = shards_[r.shard]->link_of(r.index);
    }
    if (p == kNoParent) return std::nullopt;
    return unpack(p);
  }

  /// Total states across shards (exact whenever no insert is mid-flight).
  /// Under the external tier, pending (unresolved) entries are not counted.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& es : ext_shards_) total += es->set.size();
    for (const auto& sh : shards_) total += sh->size();
    return total;
  }

  [[nodiscard]] std::size_t memory_used() const { return budget_.used(); }
  [[nodiscard]] std::size_t memory_limit() const { return budget_.limit(); }
  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }

  /// Quiescent-only: summed raw encoding bytes of all stored states.
  [[nodiscard]] std::size_t raw_bytes() const {
    std::size_t total = 0;
    for (const auto& sh : shards_) total += sh->raw_bytes();
    return total;
  }

  /// Quiescent-only: bytes actually spent storing states (the shards'
  /// payloads plus the dictionary footprint). Under the external tier
  /// this is the fixed RAM plan (caches + buffers + sort scratch) — the
  /// records themselves live on disk (external_bytes()).
  [[nodiscard]] std::size_t stored_bytes() const {
    std::size_t total = interner_.charged();
    for (const auto& es : ext_shards_) total += es->set.memory_used();
    for (const auto& sh : shards_) total += sh->stored_bytes();
    return total;
  }

  /// Quiescent-only: bytes held in mmap-backed spill files across the
  /// shards and the dictionaries.
  [[nodiscard]] std::size_t spill_bytes() const {
    std::size_t total = interner_.spill_bytes();
    for (const auto& sh : shards_) total += sh->spill_bytes();
    return total;
  }

  /// Quiescent-only: chunk bytes held but never occupied by records.
  [[nodiscard]] std::size_t waste_bytes() const {
    std::size_t total = interner_.waste_bytes();
    for (const auto& sh : shards_) total += sh->waste_bytes();
    return total;
  }

  /// Do traces replay by fingerprint? True under hash compaction and the
  /// external tier, which keep no state bytes to replay against.
  [[nodiscard]] bool fingerprinted() const {
    return st_.hash_compact || !ext_shards_.empty();
  }

  /// Does an insert read its component marks (StorageOptions::collapses)?
  [[nodiscard]] bool collapses() const { return collapses_; }

  /// The resolved fingerprint function this set hashes with.
  [[nodiscard]] FingerprintFn fingerprint_fn() const { return fp_; }

  /// Fingerprint of a record under hash compaction (its payload) and the
  /// external tier (read back from the shard's order log there).
  [[nodiscard]] std::uint64_t fingerprint_of(Ref r) const {
    if (!ext_shards_.empty())
      return ext_shards_[r.shard]->set.fingerprint_at(r.index);
    return shards_[r.shard]->hash_of(r.index);
  }

 private:
  static constexpr unsigned kMaxShards = 256;

  /// One external shard: a single-partition delayed-duplicate-detection
  /// set behind a spinlock. The lock covers insert and resolve; both are
  /// short (an append, or one watermark-bounded merge) and the shard
  /// fan-out keeps contention low.
  struct ExtShard {
    SpinLock mu;
    ExternalVisitedSet set;
    ExtShard(MemoryBudget& b, const ExternalVisitedSet::Config& cfg)
        : set(b, cfg) {}
  };

  [[nodiscard]] std::uint32_t shard_of(std::uint64_t h) const {
    return static_cast<std::uint32_t>(shard_bits_ == 0 ? 0
                                                       : h >> (64 - shard_bits_));
  }

  [[nodiscard]] InsertResult insert_external(std::uint32_t si, std::uint64_t fp,
                                             std::uint64_t parent,
                                             std::span<const std::byte> state,
                                             std::vector<FreshState>* fresh) {
    if (!ext_ok_) return {Outcome::Exhausted, {}};
    ExtShard& es = *ext_shards_[si];
    std::lock_guard<SpinLock> lock(es.mu);
    const Outcome out = es.set.insert(fp, parent, state);
    if (out == Outcome::Exhausted) return {out, {}};
    if (out == Outcome::Deferred) {
      ext_pending_.fetch_add(1, std::memory_order_release);
      // Ripe inline resolve: the inserting worker pays for this shard's
      // merge while the others keep exploring — partitions routed to
      // workers, merges overlapped with expansion.
      if (fresh != nullptr && es.set.needs_resolve() &&
          resolve_shard_locked(si, es, /*only_ripe=*/true, *fresh) ==
              ResolveOutcome::Failed)
        return {Outcome::Exhausted, {}};
    }
    return {out, {si, 0}};
  }

  /// Caller holds es.mu. Decrements ext_pending_ by what the merge
  /// consumed and appends admitted states to `fresh`.
  [[nodiscard]] ResolveOutcome resolve_shard_locked(
      std::uint32_t si, ExtShard& es, bool only_ripe,
      std::vector<FreshState>& fresh) {
    const std::size_t before = es.set.pending();
    const ResolveOutcome ro = es.set.resolve(
        only_ripe, [&](std::uint32_t index, std::uint64_t /*fp*/,
                       std::uint64_t /*parent*/,
                       std::span<const std::byte> bytes) {
          fresh.push_back({Ref{si, index},
                           std::vector<std::byte>(bytes.begin(), bytes.end())});
        });
    const std::size_t consumed = before - es.set.pending();
    if (consumed != 0)
      ext_pending_.fetch_sub(consumed, std::memory_order_release);
    if (ro == ResolveOutcome::Failed) ext_ok_ = false;
    return ro;
  }

  MemoryBudget budget_;
  StorageOptions st_;
  FingerprintFn fp_ = &default_fingerprint;
  unsigned shard_bits_ = 0;
  bool track_parents_;
  bool collapses_;  // st_.collapses(), read on every insert
  CollapseStructure structure_;
  ComponentInterner interner_;  // Collapse only; idle (no dictionary) else
  mutable std::vector<std::byte> scratch_;  // Collapse at() expansion
  std::vector<std::unique_ptr<ConcurrentCollapsedSet>> shards_;
  std::vector<std::unique_ptr<ExtShard>> ext_shards_;  // external tier only
  std::atomic<std::size_t> ext_pending_{0};
  bool ext_ok_ = false;  // meaningful only when ext_shards_ is non-empty
};

}  // namespace ccref::verify

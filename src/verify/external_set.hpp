// External-memory visited set: partitioned fingerprint run files with a
// RAM cache front and sorted-run delayed duplicate detection (Stern &
// Dill's disk-based Murphi scheme, adapted to the fingerprint tier).
//
// A hash table cannot simply move to disk: a table probe is a random
// access, and random access to disk is what kills external hashing. This
// tier removes the table from RAM entirely by changing the *timing* of
// the membership answer:
//
//   * insert(fp) first probes a small in-RAM cache of recently inserted
//     fingerprints. The cache holds only genuine fingerprints, so a HIT
//     is an exact "AlreadyPresent" — no deferred work, no I/O. BFS
//     locality makes this the common case (most duplicate edges point at
//     states inserted recently).
//   * A MISS proves nothing (the cache forgets). The fingerprint is
//     appended — 8 bytes, sequential — to one of P partition files
//     chosen by its high bits, the encoded state bytes to a sibling
//     record file, and the caller gets InsertOutcome::Deferred: "not
//     known visited; queued for delayed duplicate detection".
//   * When a partition's pending run crosses a watermark (or the BFS
//     frontier drains), resolve() sorts the pending fingerprints by
//     (fp, arrival), streams them against that partition's sorted
//     history run, writes the merged history, and calls back with each
//     genuinely-new state so the engine can assign it an index and
//     re-enqueue it. Per resolved batch that is ONE sequential read of
//     the history plus ONE sequential write of the merged run — the
//     amortized ≤2 sequential passes the tier is designed around.
//
// Every pass moves blocks, not fingerprints. The merge reads the history
// a block at a time and copies each history range between two batch keys
// (found by binary search inside the block) to the merged run in one
// piece; the survivor pass parses the pending records in place, a window
// at a time. Each partition ping-pongs between two history files, and the
// file being written is rewound rather than recreated, so its pages stay
// in the page cache from one merge to the next.
//
// Partitioning by high fingerprint bits keeps each sort RAM-sized and
// each merge local to one file; fingerprints are uniform, so partitions
// stay balanced. Within a batch, duplicates dedupe by arrival order
// (first one wins — matching what a RAM table would have answered).
//
// Correctness: a state's fingerprint is appended to exactly one
// partition, and a partition's history run is a sorted set of every
// fingerprint previously admitted there. A pending fingerprint survives
// iff it is absent from the history AND is the first of its value in the
// batch, so each distinct fingerprint is admitted exactly once across
// the whole run — the same exactly-once discipline as a RAM table, with
// the answer delayed to the next merge. Fingerprint collisions dedupe
// distinct states exactly as --hash-compact does; omission_bound()
// quantifies that, and it is reported, never silent.
//
// Files live unlinked in the caller's directory (run_file.hpp): the fds
// own the blocks, crash leaves nothing. All RAM (cache, sort scratch,
// merge blocks, append buffers) is charged to the shared MemoryBudget up
// front, so the 64 MB wall stays honest while disk takes the table's
// place.
//
// One engine drives this set: explore(), through CollapsedStateSet (its
// frontier queue and order log live there). par_explore hands --external
// runs to explore(), so a run holds exactly one set and configure() sizes
// it from the whole budget.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/atomic_table.hpp"
#include "support/contracts.hpp"
#include "support/run_file.hpp"
#include "verify/memory_budget.hpp"

namespace ccref::verify {

/// `--external DIR` routing, threaded through StorageOptions. The set's
/// geometry is sized from the memory budget (ExternalVisitedSet::configure).
struct ExternalPolicy {
  std::string dir;  // empty: tier off

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
};

/// How a resolve pass ended, surfaced to the BFS drain loop.
enum class ResolveOutcome : std::uint8_t {
  Fresh,    // at least one genuinely-new state was delivered
  Drained,  // nothing pending anywhere (or nothing survived the merge)
  Failed,   // disk I/O failed — the caller reports Unfinished
};

class ExternalVisitedSet {
 public:
  using Outcome = ::ccref::InsertOutcome;

  struct Config {
    std::string dir;
    std::size_t partitions = 4;    // power of two
    std::size_t watermark = 4096;  // pending entries per partition
    std::size_t cache_slots = 65536;  // power of two
    bool keep_order_log = false;   // (fp, parent) per resolved state, for traces
  };

  /// Budget-driven sizing: the one set of a run draws on the whole budget.
  [[nodiscard]] static Config configure(const ExternalPolicy& policy,
                                        std::size_t budget_limit) {
    Config cfg;
    cfg.dir = policy.dir;
    // Partitions bound each merge's sort to watermark entries; more of
    // them only costs append buffers, so scale gently with the budget.
    cfg.partitions = budget_limit >= (256u << 20) ? 64
                     : budget_limit >= (16u << 20) ? 16
                                                   : 4;
    cfg.watermark = std::clamp<std::size_t>(budget_limit / 1024, 4096,
                                            std::size_t{1} << 20);
    const std::size_t cache = budget_limit / 4;
    cfg.cache_slots =
        round_pow2(std::max<std::size_t>(cache / sizeof(std::uint64_t),
                                         1024));
    while (cfg.cache_slots > 1024 &&
           cfg.cache_slots * sizeof(std::uint64_t) > cache)
      cfg.cache_slots /= 2;
    return cfg;
  }

  ExternalVisitedSet(MemoryBudget& budget, const Config& cfg)
      : budget_(&budget), cfg_(cfg) {
    CCREF_REQUIRE((cfg_.partitions & (cfg_.partitions - 1)) == 0);
    CCREF_REQUIRE((cfg_.cache_slots & (cfg_.cache_slots - 1)) == 0);
    partition_bits_ = 0;
    for (std::size_t v = cfg_.partitions; v > 1; v >>= 1) ++partition_bits_;

    ok_ = ensure_run_dir(cfg_.dir);
    parts_.resize(cfg_.partitions);
    // History files are written a whole block at a time, so they take no
    // append buffer; the second one opens at the partition's first merge.
    for (auto& p : parts_) {
      ok_ = ok_ && p.fps.open(cfg_.dir, "pending-fp", kFpBufBytes);
      ok_ = ok_ && p.recs.open(cfg_.dir, "pending-rec", kRecBufBytes);
      ok_ = ok_ && p.history[0].open(cfg_.dir, "history", 0);
    }
    if (cfg_.keep_order_log)
      ok_ = ok_ && order_log_.open(cfg_.dir, "order-log", kFpBufBytes);

    cache_.resize(cfg_.cache_slots, 0);
    // Fixed RAM plan, charged once: the cache, per-partition append
    // buffers, the order log's buffer, and the resolve scratch (sort keys
    // + survivor map for one watermark-sized batch, plus the history
    // block, merge output and record window, allocated at the first
    // merge). Charging up front keeps resolve() from perturbing the budget
    // mid-run — a transient overcharge there could turn the next insert
    // into a spurious Unfinished. Same born-exhausted-not-dishonest
    // discipline as the RAM tables.
    charged_ = cfg_.cache_slots * sizeof(std::uint64_t) +
               cfg_.partitions * (kFpBufBytes + kRecBufBytes) +
               (cfg_.keep_order_log ? kFpBufBytes : 0) +
               cfg_.watermark * (sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                                 sizeof(std::uint8_t)) +
               3 * kStreamBufBytes;
    if (!budget_->try_reserve(charged_)) budget_->charge(charged_);
  }

  ~ExternalVisitedSet() { budget_->release(charged_); }

  ExternalVisitedSet(const ExternalVisitedSet&) = delete;
  ExternalVisitedSet& operator=(const ExternalVisitedSet&) = delete;

  /// All files created and healthy?
  [[nodiscard]] bool ok() const { return ok_; }

  /// Membership probe + enqueue. AlreadyPresent is EXACT (cache front
  /// hit); Deferred means "queued for the next merge"; Exhausted means
  /// disk I/O failed. Never returns Inserted — fresh states surface
  /// through resolve()'s callback instead.
  [[nodiscard]] Outcome insert(std::uint64_t fp, std::uint64_t parent,
                               std::span<const std::byte> bytes) {
    if (!ok_) return Outcome::Exhausted;
    if (fp == 0) fp = 1;  // 0 marks an empty cache slot
    const std::size_t mask = cfg_.cache_slots - 1;
    const std::size_t base = fp & mask;
    for (std::size_t i = 0; i < kCacheProbes; ++i) {
      const std::uint64_t w = cache_[(base + i) & mask];
      if (w == fp) return Outcome::AlreadyPresent;
      if (w == 0) break;
    }
    // Remember the fingerprint (overwriting the oldest of the probe
    // window on conflict) so repeat edges in the near future hit.
    std::size_t victim = base;
    for (std::size_t i = 0; i < kCacheProbes; ++i) {
      const std::size_t s = (base + i) & mask;
      if (cache_[s] == 0) {
        victim = s;
        break;
      }
      if (i == (cache_tick_ % kCacheProbes)) victim = s;
    }
    cache_[victim] = fp;
    ++cache_tick_;

    Partition& p = parts_[partition_of(fp)];
    std::byte head[kRecHeadBytes];
    const auto len = static_cast<std::uint32_t>(bytes.size());
    std::memcpy(head, &parent, sizeof(parent));
    std::memcpy(head + sizeof(parent), &len, sizeof(len));
    if (!p.fps.append(&fp, sizeof(fp)) ||
        !p.recs.append(head, sizeof(head), bytes.data(), bytes.size())) {
      ok_ = false;
      return Outcome::Exhausted;
    }
    ++p.pending;
    ++pending_total_;
    return Outcome::Deferred;
  }

  /// Any partition past the watermark?
  [[nodiscard]] bool needs_resolve() const {
    for (const Partition& p : parts_)
      if (p.pending >= cfg_.watermark) return true;
    return false;
  }

  [[nodiscard]] std::size_t pending() const { return pending_total_; }

  /// Run delayed duplicate detection. `only_ripe` restricts the pass to
  /// partitions past the watermark (the steady-state trigger); the BFS
  /// drain phase passes false to flush everything. `on_fresh(index, fp,
  /// parent, bytes)` fires once per genuinely-new state, in resolution
  /// order; `index` is the state's global insertion index.
  template <class F>
  [[nodiscard]] ResolveOutcome resolve(bool only_ripe, F&& on_fresh) {
    if (!ok_) return ResolveOutcome::Failed;
    bool fresh = false;
    for (Partition& p : parts_) {
      if (p.pending == 0) continue;
      if (only_ripe && p.pending < cfg_.watermark) continue;
      switch (resolve_one(p, on_fresh)) {
        case ResolveOutcome::Fresh: fresh = true; break;
        case ResolveOutcome::Drained: break;
        case ResolveOutcome::Failed: ok_ = false; return ResolveOutcome::Failed;
      }
    }
    return fresh ? ResolveOutcome::Fresh : ResolveOutcome::Drained;
  }

  /// States admitted so far (resolved; pending entries are not counted).
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Fingerprint / BFS parent of the index-th admitted state, from the
  /// order log (keep_order_log runs only — the trace-replay path).
  [[nodiscard]] std::uint64_t fingerprint_at(std::uint32_t index) const {
    return order_entry(index, 0);
  }
  [[nodiscard]] std::uint64_t parent_at(std::uint32_t index) const {
    return order_entry(index, sizeof(std::uint64_t));
  }

  /// Bytes currently held on disk across pending runs, history runs and
  /// the order log. A partition's two history files count as the larger
  /// one's high-water mark: the live run, which only ever grows.
  [[nodiscard]] std::size_t disk_bytes() const {
    std::uint64_t total = order_log_.bytes();
    for (const Partition& p : parts_)
      total += p.fps.bytes() + p.recs.bytes() +
               std::max(p.history[0].high_water(), p.history[1].high_water());
    return static_cast<std::size_t>(total);
  }

  /// Sorted-run merge passes performed (one per partition per resolve).
  [[nodiscard]] std::size_t merge_passes() const { return merge_passes_; }

  /// Bytes the merge passes read (pending fingerprints and records plus
  /// the history runs) and wrote (the merged history runs).
  [[nodiscard]] std::size_t merge_bytes_read() const {
    return merge_bytes_read_;
  }
  [[nodiscard]] std::size_t merge_bytes_written() const {
    return merge_bytes_written_;
  }

  /// RAM charged against the budget (cache + buffers + resolve scratch).
  [[nodiscard]] std::size_t memory_used() const { return charged_; }

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  // Append-buffer sizes: pending fps see one u64 per miss, records a few
  // dozen bytes; history/stream buffers carry the sequential merges.
  static constexpr std::size_t kFpBufBytes = 4096;
  static constexpr std::size_t kRecBufBytes = 8192;
  static constexpr std::size_t kStreamBufBytes = 32768;
  static constexpr std::size_t kBlockFps =
      kStreamBufBytes / sizeof(std::uint64_t);
  static constexpr std::size_t kCacheProbes = 8;
  // A pending record is (parent u64, len u32) followed by len bytes.
  static constexpr std::size_t kRecHeadBytes =
      sizeof(std::uint64_t) + sizeof(std::uint32_t);

  struct Partition {
    RunFile fps;   // pending fingerprints, 8 B each, arrival order
    RunFile recs;  // pending (parent u64, len u32, bytes) records
    // Sorted run of every admitted fingerprint in history[live]; a merge
    // rewrites it into the other file and flips `live`.
    RunFile history[2];
    unsigned live = 0;
    std::size_t pending = 0;
  };

  [[nodiscard]] static std::size_t round_pow2(std::size_t v) {
    std::size_t r = 1;
    while (r < v) r <<= 1;
    return r;
  }

  [[nodiscard]] std::size_t partition_of(std::uint64_t fp) const {
    return partition_bits_ == 0
               ? 0
               : static_cast<std::size_t>(fp >> (64 - partition_bits_));
  }

  [[nodiscard]] std::uint64_t order_entry(std::uint32_t index,
                                          std::size_t field_off) const {
    CCREF_REQUIRE(cfg_.keep_order_log && index < size_);
    std::uint64_t v = 0;
    const std::uint64_t off =
        std::uint64_t{index} * 2 * sizeof(std::uint64_t) + field_off;
    CCREF_REQUIRE(order_log_.pread_at(off, &v, sizeof(v)));
    return v;
  }

  template <class F>
  [[nodiscard]] ResolveOutcome resolve_one(Partition& p, F&& on_fresh) {
    const std::size_t n = p.pending;
    if (!p.fps.flush() || !p.recs.flush()) return ResolveOutcome::Failed;
    if (block_.empty()) {
      block_.resize(kBlockFps);
      out_.resize(kBlockFps);
    }

    // Pass 0 (RAM): load + sort the pending batch by (fp, arrival).
    batch_.resize(n);
    if (!p.fps.pread_at(0, batch_.data(), n * sizeof(std::uint64_t)))
      return ResolveOutcome::Failed;
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return batch_[a] != batch_[b] ? batch_[a] < batch_[b] : a < b;
              });
    survivor_.assign(n, 0);

    // Pass 1 (disk read) + pass 2 (disk write): merge the sorted history
    // with the sorted batch into the partition's other history file.
    RunFile& from = p.history[p.live];
    RunFile& to = p.history[p.live ^ 1];
    if (!to.ok() && !to.open(cfg_.dir, "history", 0))
      return ResolveOutcome::Failed;
    if (!to.rewind() || !merge_history(from, to))
      return ResolveOutcome::Failed;
    p.live ^= 1;
    merge_bytes_read_ += n * sizeof(std::uint64_t) + p.recs.bytes() +
                         from.bytes();
    merge_bytes_written_ += to.bytes();

    // Deliver survivors in arrival order, parsing the record file in place
    // a window at a time.
    recs_.restart(p.recs);
    std::size_t grown = 0;  // window growth charged for this pass
    bool fresh = false;
    for (std::size_t pos = 0; pos < n; ++pos) {
      const std::byte* head = recs_.take(kRecHeadBytes);
      if (head == nullptr) return ResolveOutcome::Failed;
      std::uint64_t parent = 0;
      std::uint32_t len = 0;
      std::memcpy(&parent, head, sizeof(parent));
      std::memcpy(&len, head + sizeof(parent), sizeof(len));
      if (len > recs_.window_bytes()) {
        // A record larger than the window grows it for this pass only.
        budget_->charge(len - recs_.window_bytes());
        grown += len - recs_.window_bytes();
      }
      const std::byte* body = recs_.take(len);
      if (body == nullptr) return ResolveOutcome::Failed;
      if (!survivor_[pos]) continue;
      const std::uint64_t fp = batch_[pos];
      const auto index = static_cast<std::uint32_t>(size_++);
      if (cfg_.keep_order_log) {
        const std::uint64_t entry[2] = {fp, parent};
        if (!order_log_.append(entry, sizeof(entry)))
          return ResolveOutcome::Failed;
      }
      fresh = true;
      on_fresh(index, fp, parent, std::span<const std::byte>(body, len));
    }
    if (grown != 0) {
      recs_.restart(p.recs);  // shrinks the window back
      budget_->release(grown);
    }
    // fingerprint_at/parent_at read the order log only between resolves.
    if (cfg_.keep_order_log && !order_log_.flush())
      return ResolveOutcome::Failed;

    if (!p.fps.reset() || !p.recs.reset()) return ResolveOutcome::Failed;
    pending_total_ -= p.pending;
    p.pending = 0;
    ++merge_passes_;
    return fresh ? ResolveOutcome::Fresh : ResolveOutcome::Drained;
  }

  /// Stream `from` (sorted history) against the sorted batch into `to`,
  /// marking survivors: a batch fingerprint survives iff it is absent
  /// from history and first of its value in the batch. History moves a
  /// block at a time; the range between two batch keys is found by binary
  /// search inside the block and copied in one piece.
  [[nodiscard]] bool merge_history(const RunFile& from, RunFile& to) {
    const std::uint64_t hist_bytes = from.bytes();
    std::uint64_t read_off = 0;
    std::size_t hp = 0, hl = 0;  // consumed / valid entries of block_
    std::size_t out_n = 0;       // valid entries of out_
    bool io_ok = true;

    auto flush_out = [&] {
      if (out_n != 0 &&
          !to.append(out_.data(), out_n * sizeof(std::uint64_t)))
        return false;
      out_n = 0;
      return true;
    };
    auto emit = [&](const std::uint64_t* src, std::size_t k) {
      if (out_n == 0 && k >= kBlockFps)  // whole blocks skip the copy
        return to.append(src, k * sizeof(std::uint64_t));
      while (k != 0) {
        if (out_n == kBlockFps && !flush_out()) return false;
        const std::size_t take = std::min(k, kBlockFps - out_n);
        std::memcpy(out_.data() + out_n, src, take * sizeof(std::uint64_t));
        out_n += take;
        src += take;
        k -= take;
      }
      return true;
    };
    // Next history block into block_; false at the end of history (or on
    // a failed read, which clears io_ok).
    auto refill = [&] {
      if (read_off == hist_bytes) return false;
      const auto bytes = static_cast<std::size_t>(std::min<std::uint64_t>(
          hist_bytes - read_off, kStreamBufBytes));
      if (!from.pread_at(read_off, block_.data(), bytes)) {
        io_ok = false;
        return false;
      }
      read_off += bytes;
      hp = 0;
      hl = bytes / sizeof(std::uint64_t);
      return true;
    };

    const std::size_t n = order_.size();
    for (std::size_t i = 0; i < n;) {
      const std::uint64_t key = batch_[order_[i]];
      // Copy every history fingerprint below `key`.
      bool dup = false;
      while (hp < hl || refill()) {
        const std::uint64_t* first = block_.data() + hp;
        const std::uint64_t* last = block_.data() + hl;
        const std::uint64_t* it = std::lower_bound(first, last, key);
        if (!emit(first, static_cast<std::size_t>(it - first))) return false;
        hp = static_cast<std::size_t>(it - block_.data());
        if (it != last) {
          dup = *it == key;
          break;
        }
      }
      if (!io_ok) return false;
      if (!dup) {
        survivor_[order_[i]] = 1;
        if (!emit(&key, 1)) return false;
      }
      while (i < n && batch_[order_[i]] == key) ++i;  // batch-internal dups
    }
    while (hp < hl || refill()) {
      if (!emit(block_.data() + hp, hl - hp)) return false;
      hp = hl;
    }
    return io_ok && flush_out();
  }

  MemoryBudget* budget_;
  Config cfg_;
  bool ok_ = false;
  std::size_t partition_bits_ = 0;
  std::vector<Partition> parts_;
  RunFile order_log_;  // (fp u64, parent u64) per admitted state
  std::vector<std::uint64_t> cache_;
  std::size_t cache_tick_ = 0;
  std::size_t charged_ = 0;
  std::size_t pending_total_ = 0;
  std::size_t size_ = 0;
  std::size_t merge_passes_ = 0;
  std::size_t merge_bytes_read_ = 0;
  std::size_t merge_bytes_written_ = 0;
  // Resolve scratch, sized by the watermark and charged at construction.
  std::vector<std::uint64_t> batch_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint8_t> survivor_;
  // Merge blocks (history in, merged run out) and the pending-record
  // window: the three stream buffers charged at construction.
  std::vector<std::uint64_t> block_;
  std::vector<std::uint64_t> out_;
  RunFile::Reader recs_{kStreamBufBytes};
};

}  // namespace ccref::verify

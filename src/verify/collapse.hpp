// COLLAPSE-style state-vector compression (SPIN's -DCOLLAPSE, Holzmann
// 1997) — the answer to Table 3's "limited to 64MB of memory" wall.
//
// A global state of the star protocols is a tuple of near-independent
// components: the home machine, each of the n identical remote machines,
// and each per-remote FIFO channel. Across the reachable set these
// components repeat massively (the remotes are the *same* process, so at
// any time most of them sit in one of a handful of local configurations),
// which means the flat byte encodings a visited set pools are dominated by
// repeated substrings. Under CompressionMode::Collapse each component is
// interned once in a per-class dictionary and the pooled "state" becomes the
// tuple of dictionary indices.
//
// Layout:
//   * State encoders (AsyncSystem/RendezvousSystem/liveness product) call
//     ByteSink::boundary(cls) after each component; a ComponentSink collects
//     the (offset, class) marks, a plain ByteSink ignores them.
//   * Dictionary classes group components that draw from the same value
//     space — all remote machines share one dictionary, all up channels
//     another — so n identical remotes saturate one small table instead of
//     n disjoint ones.
//   * One ComponentInterner per visited set slices a state at its marks,
//     interns each component in the per-class ConcurrentDict of its class,
//     and re-expands tuples. Dictionaries draw on the same MemoryBudget as
//     the tuple tables: the 64 MB cap bounds tables + pools + dictionaries
//     together. The sequential CollapsedStateSet owns one interner and one
//     tuple table behind the dense insertion-order index that is its BFS
//     queue; the parallel ShardedStateSet owns one interner for all of its
//     shards, so an index means the same component in every shard.
//   * Index reuse: a successor is spliced from its parent's encoding
//     (checker.hpp splice_encode), so each component the edge did not
//     touch has the parent's bytes and hence the parent's dense index. The
//     engines hand the parent's stored tuple (a ParentTuple) and the edge's
//     touched set to the insert; untouched indices are copied from the
//     parent's tuple, runs of them in one piece, and only the touched
//     components are hashed and interned. Only touched components can be
//     new, and they are interned in slot order as a full collapse would
//     intern them, so every dense index is the one a full collapse assigns.
//   * The pooled tuple is the concatenation of the per-component dictionary
//     indices in varint coding. Varint is canonical per value and a prefix
//     code, so for a fixed component structure (checked per insert) two
//     tuples are byte-equal iff every component index matches iff every
//     component's bytes match iff the raw encodings match: index-tuple
//     equality is exactly state equality, and dedupe/hashing work unchanged
//     on the compressed form. (SPIN stores fixed-width indices; varint keeps
//     the common all-dictionaries-small case 2-3x smaller still.)
//   * at() transparently re-expands the tuple through the dictionaries, so
//     decode/trace reconstruction see the original raw encoding. The
//     expansion lives in a scratch buffer: a returned span is valid only
//     until the next at() call — callers that need several states at once
//     (trace rebuilds) copy.
//
// CompressionMode::Off makes this a zero-cost passthrough: the table pools
// the raw encodings themselves.
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <tuple>
#include <vector>

#include "support/atomic_table.hpp"
#include "support/bytes.hpp"
#include "support/run_file.hpp"
#include "support/thread_pool.hpp"
#include "verify/external_set.hpp"
#include "support/hash.hpp"
#include "verify/frontier_log.hpp"
#include "verify/memory_budget.hpp"

namespace ccref::verify {

enum class CompressionMode : std::uint8_t {
  Off,       // pool raw byte encodings (bit-identical to prior results)
  Collapse,  // intern components per class, pool varint index tuples
};

[[nodiscard]] constexpr const char* to_string(CompressionMode m) {
  switch (m) {
    case CompressionMode::Off: return "off";
    case CompressionMode::Collapse: return "collapse";
  }
  return "?";
}

/// Parse a `--compress` flag value; nullopt on anything unknown.
[[nodiscard]] inline std::optional<CompressionMode> parse_compression(
    std::string_view text) {
  if (text == "off") return CompressionMode::Off;
  if (text == "collapse") return CompressionMode::Collapse;
  return std::nullopt;
}

/// Fingerprint function for hash compaction. A plain function pointer so
/// tests can stub a colliding hash deterministically; null means the
/// engine's hash_bytes.
using FingerprintFn = std::uint64_t (*)(std::span<const std::byte>);

[[nodiscard]] inline std::uint64_t default_fingerprint(
    std::span<const std::byte> bytes) {
  return hash_bytes(bytes);
}

/// Birthday-bound estimate of the probability that hash compaction omitted
/// at least one distinct state (two whose fingerprints collide dedupe to
/// one): n(n-1)/2 pairs, each colliding with probability 2^-64.
[[nodiscard]] inline double omission_bound(std::size_t states) {
  const double n = static_cast<double>(states);
  const double p = n * (n - 1) / 2.0 / 18446744073709551616.0;  // 2^64
  return p > 1.0 ? 1.0 : p;
}

/// Storage-tier routing for a visited set, assembled by the checkers from
/// CheckOptions and threaded to every set/shard/dictionary: which
/// compression tier stores states, whether hash compaction replaces byte
/// storage entirely, and whether the visited set lives on disk.
struct StorageOptions {
  CompressionMode compress = CompressionMode::Off;
  /// Store a 64-bit fingerprint per state instead of (collapsed) bytes.
  /// Under compaction `compress` is moot — there are no pooled bytes left
  /// to compress — and the checkers record a note when both are requested.
  bool hash_compact = false;
  FingerprintFn fingerprint = nullptr;  // null: default_fingerprint
  /// Keep the insertion-ordered fingerprint log (8 bytes/state, charged)
  /// so counterexample traces can be re-concretized by fingerprint replay.
  /// Under the external tier this selects the on-disk order log instead,
  /// which also holds every state's BFS parent.
  bool keep_fingerprints = false;
  /// Disk-backed visited tier (external_set.hpp): fingerprints live in
  /// partitioned run files with a RAM cache front, membership resolves by
  /// sorted-run delayed duplicate detection. Subsumes hash_compact (same
  /// fingerprint representation, hence the same omission bound) and makes
  /// `compress` moot; the checkers note both downgrades.
  ExternalPolicy external{};

  /// Does the visited set intern components? Only then does an insert read
  /// its component marks: the fingerprint tiers store no bytes to collapse.
  [[nodiscard]] bool collapses() const {
    return compress == CompressionMode::Collapse && !hash_compact &&
           !external.enabled();
  }
};

// ---------------------------------------------------------------------------
// The COLLAPSE codec — one lock-free component interner behind both the
// sequential set and the parallel engine's CAS-based shards. The
// read-mostly dictionary HIT path takes no lock at all: component values
// recur massively (that is the whole premise of COLLAPSE), so after warm-up
// nearly every intern() is a lock-free probe. Only a genuine miss — once
// per distinct component value, ever — takes a short per-dictionary
// spinlock, which a single-threaded caller never contends.
// ---------------------------------------------------------------------------

/// Component structure registry: slot k of every state tuple must always
/// carry the same dictionary class, or index-tuple equality would stop
/// mirroring state equality. First-seen classes are published with CAS, so
/// every thread inserting into a set (and every re-expansion) agrees on
/// one structure.
class CollapseStructure {
 public:
  static constexpr std::size_t kMaxComponents = 512;

  CollapseStructure() {
    for (auto& c : cls_) c.store(-1, std::memory_order_relaxed);
  }

  /// Record (or verify) that tuple slot `slot` carries class `cls`.
  /// False on a structure mismatch — a caller bug, checked by REQUIRE.
  [[nodiscard]] bool check_or_set(std::size_t slot, std::uint8_t cls) {
    if (slot >= kMaxComponents) return false;
    auto want = static_cast<std::int16_t>(cls);
    std::int16_t cur = cls_[slot].load(std::memory_order_acquire);
    if (cur == want) return true;
    if (cur != -1) return false;
    std::int16_t expected = -1;
    if (cls_[slot].compare_exchange_strong(expected, want,
                                           std::memory_order_acq_rel))
      return true;
    return expected == want;
  }

  /// Record (or verify) the component count once a full tuple is sliced.
  [[nodiscard]] bool seal(std::size_t n) {
    auto want = static_cast<std::int32_t>(n);
    std::int32_t cur = count_.load(std::memory_order_acquire);
    if (cur == want) return true;
    if (cur != -1) return false;
    std::int32_t expected = -1;
    if (count_.compare_exchange_strong(expected, want,
                                       std::memory_order_acq_rel))
      return true;
    return expected == want;
  }

  [[nodiscard]] std::size_t count() const {
    auto c = count_.load(std::memory_order_acquire);
    return c < 0 ? 0 : static_cast<std::size_t>(c);
  }
  [[nodiscard]] std::uint8_t cls(std::size_t slot) const {
    return static_cast<std::uint8_t>(cls_[slot].load(std::memory_order_acquire));
  }

 private:
  std::array<std::atomic<std::int16_t>, kMaxComponents> cls_;
  std::atomic<std::int32_t> count_{-1};
};

/// One per-class intern dictionary: maps component bytes to a dense index
/// (dense because the varint tuple coding and the compression-ratio
/// arithmetic depend on small indices). Lookup is lock-free: slot words
/// pack [dense:32][offset+1:32] and are published with release stores, so
/// a prober either sees a complete entry or an empty word. The miss path
/// takes the dictionary's spinlock, re-probes the CURRENT array (the
/// lock-free probe may have raced a publication or read a retired array),
/// and inserts. Slot arrays grow under the lock and are retired — not
/// freed — until destruction, because lock-free probers may still hold
/// them; a stale probe can only miss, never mis-resolve, and every miss
/// re-checks under the lock.
class ConcurrentDict {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::size_t kFloorBytes = 64 * sizeof(std::uint64_t);

  ConcurrentDict(MemoryBudget& budget, std::size_t chunk0, bool* alive)
      : budget_(&budget), pool_(budget, chunk0), map_(budget) {
    *alive = budget_->try_reserve(kInitialSlots * sizeof(std::uint64_t));
    if (*alive) {
      charged_.fetch_add(kInitialSlots * sizeof(std::uint64_t),
                         std::memory_order_relaxed);
      slots_.store(new Array(kInitialSlots), std::memory_order_relaxed);
    }
  }

  ConcurrentDict(const ConcurrentDict&) = delete;
  ConcurrentDict& operator=(const ConcurrentDict&) = delete;

  ~ConcurrentDict() { delete slots_.load(std::memory_order_relaxed); }

  /// Dense index of `bytes`, interning on first sight; kNone when the
  /// budget refuses the entry. `h` = hash_bytes(bytes).
  [[nodiscard]] std::uint32_t intern(std::span<const std::byte> bytes,
                                     std::uint64_t h) {
    Array* arr = slots_.load(std::memory_order_acquire);
    std::uint32_t dense = lookup(arr, bytes, h);
    if (dense != kNone) return dense;  // lock-free hit path

    std::lock_guard<SpinLock> guard(lock_);
    arr = slots_.load(std::memory_order_relaxed);
    dense = lookup(arr, bytes, h);
    if (dense != kNone) return dense;  // raced a publication

    // Keep ≤ 70% load so the lock-free probe stays short.
    if ((size_plain_ + 1) * 10 > arr->count * 7) {
      if (Array* bigger = grow(arr)) arr = bigger;
      // Growth refused: keep inserting into the old array up to a hard
      // 90% cap, past which we give up (probe termination guarantee).
      else if ((size_plain_ + 1) * 10 >= arr->count * 9)
        return kNone;
    }

    const std::uint32_t off = pool_.alloc(sizeof(std::uint32_t) + bytes.size());
    if (off == decltype(pool_)::kNpos) return kNone;
    std::byte* p = pool_.data(off);
    const auto len = static_cast<std::uint32_t>(bytes.size());
    std::memcpy(p, &len, sizeof(len));
    if (!bytes.empty())
      std::memcpy(p + sizeof(len), bytes.data(), bytes.size());

    dense = size_plain_;
    if (!map_.reserve(dense)) return kNone;
    map_.set(dense, off);
    // Count the entry before publishing it, so whoever acquires the word
    // (or a record holding its index) also sees size() past it.
    ++size_plain_;
    size_.store(size_plain_, std::memory_order_relaxed);

    // Publish: find an empty slot in the CURRENT array and release-store
    // the complete word; lock-free probers see all of it or none of it.
    const std::uint64_t mask = arr->count - 1;
    std::size_t slot = h & mask;
    while (arr->word(slot).load(std::memory_order_relaxed) != 0)
      slot = (slot + 1) & mask;
    arr->word(slot).store((std::uint64_t{dense} << 32) | (std::uint64_t{off} + 1),
                          std::memory_order_release);
    return dense;
  }

  /// Bytes of entry `dense` (used by tuple re-expansion). Safe from any
  /// thread for an index it learned through a release/acquire chain from
  /// the intern() that returned it: the entry, its map slot and the count
  /// are all written before the word that publishes the index.
  [[nodiscard]] std::span<const std::byte> at(std::uint32_t dense) const {
    CCREF_REQUIRE(dense < size_.load(std::memory_order_relaxed));
    const std::byte* p = pool_.data(map_[dense]);
    std::uint32_t len = 0;
    std::memcpy(&len, p, sizeof(len));
    return {p + sizeof(len), len};
  }

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

  /// Bytes charged to the budget (slot arrays incl. retired + pool + map).
  [[nodiscard]] std::size_t charged() const {
    return charged_.load(std::memory_order_relaxed) + pool_.charged() +
           map_.charged();
  }

  /// Pool bytes held but never occupied by an entry.
  [[nodiscard]] std::size_t waste_bytes() const { return pool_.bytes_waste(); }

 private:
  static constexpr std::size_t kInitialSlots =
      kFloorBytes / sizeof(std::uint64_t);

  using Array = AtomicSlots<MemoryBudget>::Array;

  [[nodiscard]] std::uint32_t lookup(Array* arr,
                                     std::span<const std::byte> bytes,
                                     std::uint64_t h) const {
    const std::uint64_t mask = arr->count - 1;
    std::size_t slot = h & mask;
    for (;;) {
      const std::uint64_t w = arr->word(slot).load(std::memory_order_acquire);
      if (w == 0) return kNone;
      const auto off = static_cast<std::uint32_t>((w & 0xffffffffu) - 1);
      const std::byte* p = pool_.data(off);
      std::uint32_t len = 0;
      std::memcpy(&len, p, sizeof(len));
      if (len == bytes.size() &&
          (bytes.empty() ||
           std::memcmp(p + sizeof(len), bytes.data(), len) == 0))
        return static_cast<std::uint32_t>(w >> 32);
      slot = (slot + 1) & mask;
    }
  }

  // Under lock_. nullptr when the budget refuses the bigger array.
  [[nodiscard]] Array* grow(Array* old) {
    const std::size_t fresh_count = old->count * 2;
    if (!budget_->try_reserve(fresh_count * sizeof(std::uint64_t)))
      return nullptr;
    charged_.fetch_add(fresh_count * sizeof(std::uint64_t),
                       std::memory_order_relaxed);
    auto* fresh = new Array(fresh_count);
    const std::uint64_t mask = fresh_count - 1;
    for (std::size_t i = 0; i < old->count; ++i) {
      const std::uint64_t w = old->word(i).load(std::memory_order_relaxed);
      if (w == 0) continue;
      const auto off = static_cast<std::uint32_t>((w & 0xffffffffu) - 1);
      const std::byte* p = pool_.data(off);
      std::uint32_t len = 0;
      std::memcpy(&len, p, sizeof(len));
      std::size_t slot =
          hash_bytes({p + sizeof(len), len}) & mask;
      while (fresh->word(slot).load(std::memory_order_relaxed) != 0)
        slot = (slot + 1) & mask;
      fresh->word(slot).store(w, std::memory_order_relaxed);
    }
    slots_.store(fresh, std::memory_order_release);
    // Lock-free probers may still hold `old`: retire it (and keep its
    // budget charge — the memory really is still held) until destruction.
    retired_.emplace_back(old);
    return fresh;
  }

  MemoryBudget* budget_;
  ChunkedBytePool<MemoryBudget> pool_;
  SpinLock lock_;
  std::atomic<Array*> slots_{nullptr};
  std::vector<std::unique_ptr<Array>> retired_;  // mutated under lock_
  // Dense -> entry offset. Written only under lock_; chunks never move,
  // and an entry is set before its index is published, so readers (at())
  // walk it without coordination.
  ChunkedIndex<MemoryBudget> map_;
  std::uint32_t size_plain_ = 0;            // authoritative, under lock_
  std::atomic<std::uint32_t> size_{0};      // mirror for lock-free readers
  std::atomic<std::size_t> charged_{0};
};


/// A stored state's index tuple, sliced at its components: what the
/// collapse of each of its successors reuses. `tuple` points into the
/// state's record, which never moves; `ends[k]` is the offset one past
/// component k's varint. The engines load one per expanded state.
struct ParentTuple {
  std::span<const std::byte> tuple;
  std::vector<std::uint32_t> ends;

  void load(std::span<const std::byte> stored) {
    tuple = stored;
    // A varint ends at the first byte without its continuation bit, so
    // there are at most as many ends as bytes.
    ends.resize(stored.size());
    std::size_t n = 0;
    for (std::size_t i = 0; i < stored.size(); ++i)
      if ((std::to_integer<unsigned>(stored[i]) & 0x80) == 0)
        ends[n++] = static_cast<std::uint32_t>(i + 1);
    ends.resize(n);
  }
};

/// What an insert may reuse of a successor's parent: its ParentTuple and
/// the components the edge touched. The default reuses nothing (the root,
/// a canonicalized or broadcast successor, or a caller without a parent).
struct TupleReuse {
  const ParentTuple* parent = nullptr;
  ComponentSet touched = ComponentSet::every();
};

/// The COLLAPSE codec: slices a state at its component marks, interns each
/// component in its class's ConcurrentDict (created on first use), and
/// emits the varint index tuple; expand() inverts it. collapse() may run on
/// any number of threads at once, and so may expand() on any tuple read
/// from a published record; the byte counters are exact under quiescence.
class ComponentInterner {
 public:
  ComponentInterner(MemoryBudget& budget, CollapseStructure& structure)
      : budget_(&budget), structure_(&structure) {
    for (auto& d : dicts_) d.store(nullptr, std::memory_order_relaxed);
  }

  ~ComponentInterner() {
    for (auto& d : dicts_) delete d.load(std::memory_order_relaxed);
  }

  ComponentInterner(const ComponentInterner&) = delete;
  ComponentInterner& operator=(const ComponentInterner&) = delete;

  /// Replace `tuple` with the index tuple of `state`. When `reuse` names a
  /// parent with one index per slot and an edge that touched only some
  /// components, each run of untouched indices is copied from the parent's
  /// tuple in one piece (as splice_encode copies their bytes) and only the
  /// touched components are hashed and interned: the same bytes a full
  /// collapse gives, since `state` was spliced from that parent. False
  /// when the budget refuses a dictionary entry.
  [[nodiscard]] bool collapse(std::span<const std::byte> state,
                              std::span<const ComponentMark> marks,
                              std::vector<std::byte>& tuple,
                              const TupleReuse& reuse = {}) {
    // Slice into components: [previous end, mark.end) per mark, plus an
    // implicit trailing class-0 component for anything after the last mark.
    // No marks at all means the caller's sink never recorded them — a state
    // interned whole would silently store at ratio 1.
    CCREF_REQUIRE_MSG(!marks.empty(),
                      "collapse needs the component marks of the state");
    const std::size_t slots = marks.size() + (marks.back().end < state.size());
    auto bounds = [&](std::size_t k) {  // [start, end) and class of slot k
      const std::uint32_t start = k == 0 ? 0 : marks[k - 1].end;
      return k < marks.size()
                 ? std::tuple{start, marks[k].end, marks[k].cls}
                 : std::tuple{start, static_cast<std::uint32_t>(state.size()),
                              std::uint8_t{0}};
    };
    // The component structure (count and classes) must be a constant of
    // the system, never state-dependent: every slot is checked, reused or
    // not.
    for (std::size_t k = 0; k < slots; ++k) {
      const auto [start, end, cls] = bounds(k);
      CCREF_REQUIRE(cls < kMaxClasses && start <= end && end <= state.size());
      CCREF_REQUIRE(structure_->check_or_set(k, cls));
    }
    CCREF_REQUIRE(structure_->seal(slots));

    const ParentTuple* parent = reuse.parent;
    if (reuse.touched.all || (parent != nullptr && parent->ends.size() != slots))
      parent = nullptr;
    // Write through a pointer into room for the longest tuple possible,
    // then trim to what was written.
    tuple.resize(parent != nullptr
                     ? parent->tuple.size() + kMaxVarint * reuse.touched.count
                     : kMaxVarint * slots);
    std::byte* out = tuple.data();
    auto intern = [&](std::size_t k) {
      const auto [start, end, cls] = bounds(k);
      ConcurrentDict* d = dict(cls);
      if (d == nullptr) return false;
      const auto comp = state.subspan(start, end - start);
      std::uint32_t dense = d->intern(comp, hash_bytes(comp));
      if (dense == ConcurrentDict::kNone) return false;
      // An interned component of a state whose insert later exhausts
      // stays in its dictionary — valid, likely reusable, fully charged.
      for (; dense >= 0x80; dense >>= 7)
        *out++ = static_cast<std::byte>(dense | 0x80);
      *out++ = static_cast<std::byte>(dense);
      return true;
    };
    std::size_t next = 0;  // the first slot not yet written
    auto copy_clean = [&](std::size_t end) {  // slots [next, end)
      if (next == end) return;
      const std::uint32_t from = next == 0 ? 0 : parent->ends[next - 1];
      const std::uint32_t len = parent->ends[end - 1] - from;
      std::memcpy(out, parent->tuple.data() + from, len);
      out += len;
    };
    bool ok = true;
    if (parent == nullptr) {
      for (std::size_t k = 0; ok && k < slots; ++k) ok = intern(k);
    } else {
      for (int i = 0; ok && i < reuse.touched.count; ++i) {
        const std::size_t c = reuse.touched.id[i];
        CCREF_REQUIRE(c < slots);
        copy_clean(c);
        ok = intern(c);
        next = c + 1;
      }
      if (ok) copy_clean(slots);
    }
    tuple.resize(static_cast<std::size_t>(out - tuple.data()));
    return ok;
  }

  /// The raw encoding `tuple` was collapsed from, in `scratch`: valid until
  /// `scratch` is next written. Every index of a tuple in a published
  /// record was interned before the record's publish (release) made it
  /// readable, so this needs no lock even while other threads intern.
  [[nodiscard]] std::span<const std::byte> expand(
      std::span<const std::byte> tuple, std::vector<std::byte>& scratch) const {
    ByteSource src(tuple);
    std::size_t len = 0;
    const std::size_t n = structure_->count();
    for (std::size_t i = 0; i < n; ++i) {
      const ConcurrentDict* d =
          dicts_[structure_->cls(i)].load(std::memory_order_acquire);
      CCREF_ASSERT(d != nullptr);
      auto comp = d->at(static_cast<std::uint32_t>(src.varint()));
      // `scratch` only grows, so its bytes past `len` need no clearing.
      if (len + comp.size() > scratch.size())
        scratch.resize(2 * (len + comp.size()));
      if (!comp.empty())
        std::memcpy(scratch.data() + len, comp.data(), comp.size());
      len += comp.size();
    }
    CCREF_ASSERT(src.exhausted());
    return {scratch.data(), len};
  }

  /// Bytes charged to the budget across every dictionary.
  [[nodiscard]] std::size_t charged() const {
    return sum([](const ConcurrentDict& d) { return d.charged(); });
  }

  /// Dictionary pool bytes held but never occupied by an entry.
  [[nodiscard]] std::size_t waste_bytes() const {
    return sum([](const ConcurrentDict& d) { return d.waste_bytes(); });
  }

  /// Distinct components interned in class `cls` so far.
  [[nodiscard]] std::size_t size(std::uint8_t cls) const {
    const ConcurrentDict* d = dicts_[cls].load(std::memory_order_acquire);
    return d == nullptr ? 0 : d->size();
  }

 private:
  // 16 classes cover every encoder (async uses 4, the liveness product one
  // more).
  static constexpr std::size_t kMaxClasses = 16;
  // Dictionaries hold few distinct entries until a protocol is large;
  // 256-byte first pool chunks keep idle dictionaries cheap (chunked pools
  // charge whole chunks, so a 4 KB floor per dictionary would dominate
  // small budgets).
  static constexpr std::size_t kDictChunk0 = 256;

  /// Dictionary for `cls`, created on first use (CAS install; the loser
  /// deletes its copy). nullptr when the budget refuses even the floor.
  [[nodiscard]] ConcurrentDict* dict(std::uint8_t cls) {
    auto& slot = dicts_[cls];
    if (ConcurrentDict* d = slot.load(std::memory_order_acquire)) return d;
    bool alive = false;
    auto* fresh = new ConcurrentDict(*budget_, kDictChunk0, &alive);
    if (!alive) {
      delete fresh;
      return nullptr;
    }
    ConcurrentDict* expected = nullptr;
    if (slot.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      return fresh;
    delete fresh;  // ~ConcurrentDict releases nothing; undo the floor charge
    budget_->release(ConcurrentDict::kFloorBytes);
    return expected;
  }

  /// Bytes of the longest varint of a dense u32 index.
  static constexpr std::size_t kMaxVarint = 5;

  template <class F>
  [[nodiscard]] std::size_t sum(F of) const {
    std::size_t total = 0;
    for (const auto& d : dicts_)
      if (const auto* p = d.load(std::memory_order_acquire)) total += of(*p);
    return total;
  }

  MemoryBudget* budget_;
  CollapseStructure* structure_;
  std::array<std::atomic<ConcurrentDict*>, kMaxClasses> dicts_;
};

/// One visited-set table of records on a shared budget: raw encodings or
/// COLLAPSE index tuples (collapsed by the owning set's ComponentInterner).
/// Refs are record byte offsets: stable, not dense, never reused. The
/// parallel engine runs one per shard (ShardedStateSet); the sequential
/// engine runs one behind its insertion-order index (CollapsedStateSet).
using RecordTable = AtomicByteTable<MemoryBudget>;

/// The floors of a visited set's record tables, computed once per set so K
/// tables plus their floors provably fit small budgets (tables shrink
/// before the budget is even consulted).
struct TableLayout {
  std::size_t slots = 1024;
  std::size_t chunk0 = 4096;

  /// The layout of `tables` tables on a budget of `limit` bytes: every
  /// floor shrinks until all tables fit a quarter of it, so even tiny
  /// limits leave headroom for states.
  [[nodiscard]] static TableLayout fit(std::size_t limit, unsigned tables) {
    TableLayout layout;
    while (layout.slots > 64 &&
           tables * layout.slots * sizeof(std::uint64_t) > limit / 4)
      layout.slots /= 2;
    while (layout.chunk0 > 1024 && tables * layout.chunk0 > limit / 4)
      layout.chunk0 /= 2;
    return layout;
  }
};

/// The sequential engine's visited set over one owned budget. Its RAM
/// tiers are one RecordTable — the table the parallel engine runs per
/// shard — fed by the set's one ComponentInterner under
/// Collapse, behind a u32 insertion-order index: states are
/// numbered 0..size()-1 in discovery order and retrievable by number, so
/// the set doubles as the BFS queue (the cursor trick) and parent links
/// are plain numbers. Every record carries its own number, so a duplicate
/// insert reports the number of the state it matched. Under hash
/// compaction and the external tier, fingerprints replace stored bytes
/// (a FingerprintTable, the ExternalVisitedSet) and the table stays idle;
/// the BFS queue then holds the encodings themselves, hash compaction's in
/// a FrontierLog and the external tier's in a file on disk.
///
/// The set is also the one home of BFS parents, as the parallel engine's
/// records are: every insert names its parent, and a set built with
/// `track_parents` keeps it for each fresh state — in a budget-charged
/// ChunkedIndex under the RAM and hash-compact tiers. The external tier
/// keeps parents in its on-disk order log instead (keep_fingerprints).
class CollapsedStateSet {
 public:
  using Outcome = InsertOutcome;
  /// A stored state's identity: its insertion number.
  using Ref = std::uint32_t;
  /// The parent the root's insert names.
  static constexpr Ref kNoParent = 0xffffffffu;

  struct InsertResult {
    Outcome outcome;
    /// The state's insertion number: set for Inserted, and for
    /// AlreadyPresent in the RAM tiers that store bytes.
    Ref index;
  };

  explicit CollapsedStateSet(std::size_t memory_limit_bytes,
                             const StorageOptions& st = {},
                             bool track_parents = false)
      : budget_(memory_limit_bytes),
        st_(st),
        track_parents_(track_parents),
        interner_(budget_, structure_),
        table_(table_of(budget_, memory_limit_bytes, st)),
        order_(budget_),
        parents_(budget_),
        fp_order_(budget_) {
    init_tiers();
  }

  CollapsedStateSet(const CollapsedStateSet&) = delete;
  CollapsedStateSet& operator=(const CollapsedStateSet&) = delete;

  /// Insert-if-absent. `parent` is the number of the state whose
  /// expansion produced this one (kNoParent for the root), kept for a
  /// fresh state when the set tracks parents. Under Collapse, `reuse` lets
  /// the interner copy the parent's indices of the components the edge did
  /// not touch.
  [[nodiscard]] InsertResult insert(std::span<const std::byte> state,
                                    std::span<const ComponentMark> marks = {},
                                    Ref parent = kNoParent,
                                    const TupleReuse& reuse = {}) {
    if (ext_) return insert_disk(state, parent);
    if (st_.hash_compact) return insert_compacted(state, parent);
    // Admit the index slots first: the table cannot take a record back.
    const auto next = static_cast<std::uint32_t>(table_.size());
    if (!order_.reserve(next) || !reserve_parent(next))
      return {Outcome::Exhausted, 0};
    RecordTable::InsertResult r;
    if (st_.collapses()) {
      if (!interner_.collapse(state, marks, tuple_, reuse))
        return {Outcome::Exhausted, 0};
      r = table_.insert(tuple_, hash_bytes(tuple_), next);
    } else {
      r = table_.insert(state, hash_bytes(state), next);
    }
    if (r.outcome == Outcome::Inserted) {
      raw_bytes_ += state.size();
      order_.set(next, r.ref);
      if (track_parents_) parents_.set(next, parent);
      return {r.outcome, next};
    }
    if (r.outcome == Outcome::AlreadyPresent)
      return {r.outcome, static_cast<std::uint32_t>(table_.link_at(r.ref))};
    return {r.outcome, 0};
  }

  /// Raw encoding of a stored state. Off: a stable span into the pool.
  /// Collapse: the tuple re-expanded through the dictionaries into a scratch
  /// buffer — valid only until the next at() call on this set. Hash-compact:
  /// only the BFS cursor's state is retrievable — the frontier log holds
  /// fresh states between insertion and expansion, and at(cursor) consumes
  /// its oldest entry; anything older exists only as a fingerprint.
  /// External: the same, read from the on-disk frontier; valid until the
  /// next at() or insert().
  [[nodiscard]] std::span<const std::byte> at(std::uint32_t index) const {
    if (ext_) [[unlikely]]
      return at_external(index);
    if (st_.hash_compact) [[unlikely]]
      return at_compacted(index);
    CCREF_REQUIRE(index < table_.size());
    if (!st_.collapses()) return table_.at(order_[index]);
    return interner_.expand(table_.at(order_[index]), scratch_);
  }

  /// Collapse only: the stored index tuple of the index-th state, a
  /// stable span that the successors' inserts reuse (ParentTuple).
  [[nodiscard]] std::span<const std::byte> tuple_at(std::uint32_t index) const {
    CCREF_REQUIRE(st_.collapses() && index < table_.size());
    return table_.at(order_[index]);
  }

  /// BFS parent of the index-th state, as its insert named it; nullopt
  /// for the root. Needs a set that tracks parents, or under the external
  /// tier one that keeps its order log.
  [[nodiscard]] std::optional<Ref> parent_of(Ref index) const {
    Ref p = 0;
    if (ext_) {
      p = static_cast<Ref>(ext_->parent_at(index));
    } else {
      CCREF_REQUIRE(track_parents_ && index < size());
      p = parents_[index];
    }
    if (p == kNoParent) return std::nullopt;
    return p;
  }

  /// Do traces replay by fingerprint? True under hash compaction and the
  /// external tier, which keep no state bytes to replay against.
  [[nodiscard]] bool fingerprinted() const {
    return ext_ != nullptr || st_.hash_compact;
  }

  /// The fingerprint function the fingerprint tiers hash with.
  [[nodiscard]] FingerprintFn fingerprint_fn() const {
    return st_.fingerprint != nullptr ? st_.fingerprint : &default_fingerprint;
  }

  /// Fingerprint of the index-th state under the fingerprint tiers, from
  /// the log that keep_fingerprints keeps.
  [[nodiscard]] std::uint64_t fingerprint_of(Ref index) const {
    if (ext_) return ext_->fingerprint_at(index);
    CCREF_REQUIRE(st_.keep_fingerprints && st_.hash_compact && index < size());
    return fp_order_[index];
  }

  /// External tier: run delayed duplicate detection over every partition
  /// with pending fingerprints, appending genuinely-new states to the
  /// frontier. Drained for the RAM tiers (they never defer), so the BFS
  /// drain loop costs nothing when --external is off. The BFS asks only
  /// once its in-order frontier is spent, so hash compaction's log gives
  /// back the chunk it appends to: a finished search holds no log bytes.
  [[nodiscard]] ResolveOutcome resolve_pending() {
    if (ext_) return resolve_disk(/*only_ripe=*/false);
    log_.seal();
    return ResolveOutcome::Drained;
  }

  /// Does an insert read its component marks (StorageOptions::collapses)?
  [[nodiscard]] bool collapses() const { return st_.collapses(); }

  [[nodiscard]] std::size_t size() const {
    if (ext_) return ext_->size();
    return st_.hash_compact ? fps_->size() : table_.size();
  }

  [[nodiscard]] std::size_t memory_used() const {
    std::size_t total = table_.charged() + interner_.charged() +
                        order_.charged() + parents_.charged() +
                        fp_order_.charged() + log_.charged() + q_charged_;
    if (fps_) total += fps_->charged();
    if (ext_) total += ext_->memory_used();
    return total;
  }

  /// Bytes of hash compaction's frontier log held now.
  [[nodiscard]] std::size_t log_bytes() const { return log_.charged(); }

  [[nodiscard]] std::size_t memory_limit() const { return budget_.limit(); }

  [[nodiscard]] MemoryBudget& budget() { return budget_; }

  /// Disk bytes held by the external tier: pending + history runs, the
  /// order log, and the frontier queue. Zero for the RAM tiers.
  [[nodiscard]] std::size_t external_bytes() const {
    return ext_ ? ext_->disk_bytes() +
                      static_cast<std::size_t>(frontier_q_.bytes())
                : 0;
  }

  /// Sorted-run merge passes the external tier performed.
  [[nodiscard]] std::size_t merge_passes() const {
    return ext_ ? ext_->merge_passes() : 0;
  }

  /// Bytes those merge passes read and wrote (zero for the RAM tiers).
  [[nodiscard]] std::size_t merge_bytes_read() const {
    return ext_ ? ext_->merge_bytes_read() : 0;
  }
  [[nodiscard]] std::size_t merge_bytes_written() const {
    return ext_ ? ext_->merge_bytes_written() : 0;
  }

  /// Bytes the pool would hold uncompressed: the summed raw encoding sizes
  /// of every stored state (Off: exactly the stored payload bytes).
  [[nodiscard]] std::size_t raw_bytes() const {
    return raw_bytes_;
  }

  /// Bytes actually spent storing states: tuple pool plus the complete
  /// dictionary footprint (entries and tables included — the honest side of
  /// the raw_bytes() comparison). Hash-compact: the fingerprint table.
  [[nodiscard]] std::size_t stored_bytes() const {
    if (ext_) return ext_->memory_used();  // the cache front stands in
    if (st_.hash_compact) return fps_->charged();
    return table_.payload_bytes() + interner_.charged();
  }

  /// Chunk bytes held but never occupied by records, across all pools.
  [[nodiscard]] std::size_t waste_bytes() const {
    return table_.waste_bytes() + interner_.waste_bytes();
  }

 private:
  /// The record table: the fingerprint tiers leave it idle at a 64-slot
  /// floor.
  [[nodiscard]] static RecordTable table_of(MemoryBudget& budget,
                                            std::size_t limit,
                                            const StorageOptions& st) {
    const auto layout = st.hash_compact || st.external.enabled()
                            ? TableLayout{.slots = 64}
                            : TableLayout::fit(limit, 1);
    return {budget, layout.slots, layout.chunk0, RecordLink::Index};
  }

  /// Admit the parent slot of state `next`: free without parent tracking.
  [[nodiscard]] bool reserve_parent(std::uint32_t next) {
    return !track_parents_ || parents_.reserve(next);
  }

  void init_tiers() {
    if (st_.external.enabled()) {
      // External subsumes hash compaction: same fingerprint
      // representation, but membership lives on disk. Normalizing here
      // protects direct users of the set; the checkers also note it.
      st_.hash_compact = false;
      auto cfg = ExternalVisitedSet::configure(st_.external, budget_.limit());
      cfg.keep_order_log = st_.keep_fingerprints;
      ext_ = std::make_unique<ExternalVisitedSet>(budget_, cfg);
      ext_ok_ = ext_->ok() &&
                frontier_q_.open(cfg.dir, "frontier", kFrontierBufBytes);
      // The frontier's append buffer and read window, charged like every
      // other buffer of the tier.
      q_charged_ = 2 * kFrontierBufBytes;
      if (!budget_.try_reserve(q_charged_)) budget_.charge(q_charged_);
      return;
    }
    if (st_.hash_compact)
      fps_ = std::make_unique<FingerprintTable<MemoryBudget>>(budget_, 1024);
  }

  static constexpr std::size_t kFrontierBufBytes = 32768;

  /// at() under hash compaction, out of line so the RAM tiers' at() stays
  /// small: the cursor's state is the log's oldest entry.
  [[gnu::cold, gnu::noinline]] std::span<const std::byte> at_compacted(
      std::uint32_t index) const {
    CCREF_REQUIRE(index == frontier_head_);
    log_.take_oldest(scratch_);
    ++frontier_head_;
    return scratch_;
  }

  /// at() under the external tier, kept out of line so the RAM tiers'
  /// at() stays small. Same consume-the-front discipline as the
  /// hash-compact log, but the frontier lives on disk:
  /// resolve_disk appended this state's record to the frontier queue
  /// file, and the BFS reads it back exactly once, in order, through one
  /// window refilled a block at a time.
  [[gnu::cold, gnu::noinline]] std::span<const std::byte> at_external(
      std::uint32_t index) const {
    CCREF_REQUIRE(index == frontier_head_);
    const std::byte* head = q_window_.take(sizeof(std::uint32_t));
    CCREF_REQUIRE(head != nullptr);
    std::uint32_t len = 0;
    std::memcpy(&len, head, sizeof(len));
    const std::byte* body = q_window_.take(len);
    CCREF_REQUIRE(body != nullptr);
    if (q_window_.window_bytes() + kFrontierBufBytes > q_charged_) {
      // A record larger than the window grew it until the next reset.
      const std::size_t grown =
          q_window_.window_bytes() + kFrontierBufBytes - q_charged_;
      budget_.charge(grown);
      q_charged_ += grown;
    }
    ++frontier_head_;
    return {body, len};
  }

  [[nodiscard]] InsertResult insert_disk(std::span<const std::byte> state,
                                         Ref parent) {
    if (!ext_ok_) return {Outcome::Exhausted, 0};
    auto o = ext_->insert(fingerprint_fn()(state), parent, state);
    if (o == Outcome::Exhausted) {
      ext_ok_ = false;
      return {Outcome::Exhausted, 0};
    }
    // Ripe partitions merge inline — the amortized cost of the deferred
    // inserts that filled them. Fresh survivors land on the frontier
    // queue and the BFS picks them up at the current sweep's end.
    if (o == Outcome::Deferred && ext_->needs_resolve() &&
        resolve_disk(/*only_ripe=*/true) == ResolveOutcome::Failed)
      return {Outcome::Exhausted, 0};
    return {o, 0};
  }

  [[nodiscard]] ResolveOutcome resolve_disk(bool only_ripe) {
    if (!ext_ok_) return ResolveOutcome::Failed;
    // The frontier queue is read exactly once and in order: when the BFS
    // has consumed everything in it, reclaim the file before appending
    // the next wave, bounding it to about one BFS level of encodings. The
    // read window restarts with it, shrinking back if a record grew it.
    if (q_window_.remaining() == 0 && frontier_q_.bytes() != 0) {
      if (!frontier_q_.reset()) {
        ext_ok_ = false;
        return ResolveOutcome::Failed;
      }
      q_window_.restart(frontier_q_);
      if (q_charged_ > 2 * kFrontierBufBytes) {
        budget_.release(q_charged_ - 2 * kFrontierBufBytes);
        q_charged_ = 2 * kFrontierBufBytes;
      }
    }
    bool q_ok = true;
    auto r = ext_->resolve(only_ripe, [&](std::uint32_t /*index*/,
                                          std::uint64_t /*fp*/,
                                          std::uint64_t /*parent*/,
                                          std::span<const std::byte> bytes) {
      const auto len = static_cast<std::uint32_t>(bytes.size());
      q_ok = q_ok && frontier_q_.append(&len, sizeof(len), bytes.data(),
                                        bytes.size());
      raw_bytes_ += bytes.size();
    });
    if (!q_ok || !frontier_q_.flush() || r == ResolveOutcome::Failed) {
      ext_ok_ = false;
      return ResolveOutcome::Failed;
    }
    return r;
  }

  [[nodiscard]] InsertResult insert_compacted(std::span<const std::byte> state,
                                              Ref parent) {
    const std::uint64_t fp = fingerprint_fn()(state);
    // Admit every side allocation BEFORE the fingerprint probe, because a
    // refusal after it would need open-addressing deletion: the trace
    // logs' slots and the frontier log's room for the state bytes. A chunk
    // admitted for what turns out a duplicate serves the next fresh state.
    const auto next = static_cast<std::uint32_t>(fps_->size());
    if ((st_.keep_fingerprints && !fp_order_.reserve(next)) ||
        !reserve_parent(next) || !log_.reserve(state.size()))
      return {Outcome::Exhausted, 0};
    const auto o = fps_->insert(fp);
    if (o != Outcome::Inserted) return {o, 0};
    (void)log_.append(next, state);  // admitted above
    if (st_.keep_fingerprints) fp_order_.set(next, fp);
    if (track_parents_) parents_.set(next, parent);
    raw_bytes_ += state.size();
    return {Outcome::Inserted, next};
  }

  mutable MemoryBudget budget_;  // at() releases consumed log chunks
  StorageOptions st_;
  bool track_parents_;
  CollapseStructure structure_;
  ComponentInterner interner_;  // Collapse only; idle (no dictionary) else
  std::vector<std::byte> tuple_;  // the index tuple of the current insert
  // Off: raw encodings; Collapse: varint index tuples. Each record's link
  // is its insertion number, order_ maps the number back to the record.
  RecordTable table_;
  ChunkedIndex<MemoryBudget> order_;
  // BFS parent per insertion number (track_parents, RAM and hash-compact
  // tiers) and, under hash compaction with keep_fingerprints, each state's
  // fingerprint: what a trace rebuild walks and replays.
  ChunkedIndex<MemoryBudget> parents_;
  ChunkedIndex<MemoryBudget, std::uint64_t> fp_order_;
  std::size_t raw_bytes_ = 0;  // summed encoding sizes of fresh states
  mutable std::vector<std::byte> scratch_;  // Collapse/hash-compact at() buffer
  // Hash-compaction state: the fingerprint table and the log of
  // not-yet-expanded encodings (the BFS frontier — the only place full
  // encodings still exist under compaction). The log is mutable because
  // at() — const across the storage tiers — consumes its oldest entry.
  std::unique_ptr<FingerprintTable<MemoryBudget>> fps_;
  mutable FrontierLog log_{budget_};
  // The index the next at() serves under hash compaction and the external
  // tier, whose frontiers are read once, in order.
  mutable std::uint32_t frontier_head_ = 0;
  // External-tier state: the disk-backed set, the on-disk frontier queue
  // of resolved-but-unexpanded encodings (read back by at() through
  // q_window_), the bytes charged for the queue's buffers, and a health
  // flag that turns any disk failure into an honest Exhausted.
  std::unique_ptr<ExternalVisitedSet> ext_;
  RunFile frontier_q_;
  mutable RunFile::Reader q_window_{frontier_q_, kFrontierBufBytes};
  mutable std::size_t q_charged_ = 0;
  bool ext_ok_ = false;
};

}  // namespace ccref::verify

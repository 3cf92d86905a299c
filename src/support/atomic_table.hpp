// Lock-free insert-if-absent storage: the visited-set tables of both
// verification engines (Laarman-style shared hash tables).
//
//   * ChunkedBytePool — an append-only arena of geometrically growing
//     chunks. Chunk addresses never move, so a 32-bit byte offset is a
//     stable record id that any thread can dereference without
//     coordination. Allocation is a CAS bump on one counter; chunks are
//     charged against the memory budget when first touched, so
//     budget.used() equals bytes actually held at every instant (the
//     "budget == memory_used" invariant the exhaustion tests pin).
//
//   * ChunkedIndex — an append-only array of small fixed-size entries in
//     the same geometric chunks, for dense ids that map onto pool offsets,
//     BFS parents, fingerprints or a state graph's edges (verify/graph.hpp).
//
//   * AtomicSlots — the slot array under both tables: atomic u64 words
//     (0 = empty), the occupancy an insert reserves before it claims a
//     word, and the striped resize epoch that lets one resizer migrate
//     the words into a 2x array while writers wait outside.
//
//   * AtomicByteTable — variable-length records (full encodings, COLLAPSE
//     index tuples). A slot word is [pending:1][tag:31][offset+1:32]; the
//     tag is the low 31 bits of the key's hash: it picks the home slot
//     (hash & mask) and filters probes, so records store no hash at all
//     and a resize places every word from the word alone. Insertion claims
//     an empty slot by CAS(0 -> pending|tag), appends the record to the
//     pool, then publishes with a release store of the final word;
//     concurrent probers that hit a pending word with a matching tag spin
//     (bounded: the owner never blocks while pending) and re-examine. If
//     the pool refuses the record (budget exhausted) the owner rolls the
//     slot back to 0, so a claim never leaks a slot. Readers probe with
//     acquire loads only — the release/acquire pair on the slot word is
//     what makes the record bytes visible (see DESIGN.md §4.6 for the full
//     ordering argument). Records themselves never move.
//
//   * FingerprintTable — hash compaction: the slot word IS the state's
//     64-bit fingerprint, claimed with one CAS, and nothing else is stored.
//
// Everything is intentionally header-only and templated on the budget
// type so the support layer does not depend on verify/.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <sys/mman.h>
#include <type_traits>

#include "support/contracts.hpp"
#include "support/thread_pool.hpp"

namespace ccref {

/// Stripes of AtomicSlots' resize epoch (writer-presence counters).
inline constexpr std::size_t kResizeStripes = 16;

/// The calling thread's resize-epoch stripe: a sequential id taken on its
/// first call, modulo kResizeStripes, so up to that many threads that
/// insert together sit on distinct stripes. (Hashing a thread_local's
/// address does not spread them: glibc places every thread's TLS at the
/// same offset in its stack mapping.)
[[nodiscard]] inline std::size_t resize_stripe() {
  static std::atomic<std::size_t> next{0};
  static thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kResizeStripes;
  return stripe;
}

/// Result of an insert-if-absent on any of the visited-set structures.
/// Shared across the sequential and concurrent sets so call sites can
/// compare outcomes across engines without translation.
enum class InsertOutcome : std::uint8_t {
  Inserted,        ///< fresh state, now stored
  AlreadyPresent,  ///< equal bytes were already stored
  Exhausted,       ///< memory budget refused the insertion
  Deferred,        ///< external tier: queued for delayed duplicate detection
};

/// Append-only arena: chunk k holds (chunk0 << k) bytes, so 32 chunks
/// cover the entire 32-bit offset space with at most 2x slack. Records
/// never straddle chunks (alloc skips to the next chunk instead — the
/// skipped tail is charged but never handed out; bytes_waste() reports
/// it, together with the unused tail of the final chunk at exhaustion).
/// A chunk the budget cannot grant whole is backed in part (its offsets
/// past that part are never handed out), so a pool can fill its budget
/// instead of stopping where the next doubling no longer fits.
template <class Budget>
class ChunkedBytePool {
 public:
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  ChunkedBytePool(Budget& budget, std::size_t chunk0_bytes)
      : budget_(&budget) {
    chunk0_bits_ = 8;  // 256 B floor keeps tiny-budget tables viable
    while ((std::size_t{1} << chunk0_bits_) < chunk0_bytes) ++chunk0_bits_;
  }

  ChunkedBytePool(const ChunkedBytePool&) = delete;
  ChunkedBytePool& operator=(const ChunkedBytePool&) = delete;

  ~ChunkedBytePool() {
    for (auto& chunk : chunks_) delete[] chunk.load(std::memory_order_relaxed);
  }

  /// Reserve `len` contiguous bytes; kNpos when the budget refuses the
  /// backing chunk or the 32-bit offset space is spent. Thread-safe.
  [[nodiscard]] std::uint32_t alloc(std::size_t len) {
    CCREF_REQUIRE(len > 0);
    std::uint64_t cur = top_.load(std::memory_order_relaxed);
    for (;;) {
      std::uint64_t start = cur;
      std::size_t k = chunk_index(start);
      while (start + len > held_end(k)) {
        start = chunk_end(k);  // == base of chunk k+1
        if (++k >= kMaxChunks) return kNpos;
      }
      const std::uint64_t end = start + len;
      if (end >= kNpos) return kNpos;  // offsets must stay below kNpos
      if (!ensure_chunk(k, end - base(k))) return kNpos;
      // The budget may have granted chunk k only in part: place again.
      if (end > held_end(k)) continue;
      if (top_.compare_exchange_weak(cur, end, std::memory_order_relaxed)) {
        // The bytes between the old top and a record placed past a chunk
        // seam are never handed out.
        if (start != cur)
          skipped_.fetch_add(start - cur, std::memory_order_relaxed);
        return static_cast<std::uint32_t>(start);
      }
      // CAS failure reloaded `cur`; recompute placement.
    }
  }

  [[nodiscard]] std::byte* data(std::uint32_t offset) {
    const std::size_t k = chunk_index(offset);
    return chunks_[k].load(std::memory_order_acquire) + (offset - base(k));
  }
  [[nodiscard]] const std::byte* data(std::uint32_t offset) const {
    const std::size_t k = chunk_index(offset);
    return chunks_[k].load(std::memory_order_acquire) + (offset - base(k));
  }

  /// Bytes of chunk memory charged against the budget so far.
  [[nodiscard]] std::size_t charged() const {
    return charged_.load(std::memory_order_relaxed);
  }

  /// Bytes actually handed out to callers (excludes skipped tails).
  [[nodiscard]] std::size_t bytes_allocated() const {
    // Skips are counted after the bump that made them: read them first.
    const std::uint64_t skipped = skipped_.load(std::memory_order_relaxed);
    return top_.load(std::memory_order_relaxed) - skipped;
  }

  /// Chunk bytes held but never handed out: skipped tails at chunk seams
  /// plus the unused tail of the final chunk — the honest gap between
  /// what the budget charges and what records occupy. Reported,
  /// not released: the memory really is held, and with concurrent
  /// allocators mid-CAS the tail cannot be safely reconciled away.
  [[nodiscard]] std::size_t bytes_waste() const {
    const std::size_t held = charged();
    const std::size_t out = bytes_allocated();
    return held > out ? held - out : 0;
  }

 private:
  static constexpr std::size_t kMaxChunks = 32;

  // Offsets [base(k), base(k) + (chunk0 << k)) live in chunk k, where
  // base(k) = (2^k - 1) * chunk0. Inverse: k = floor(log2(o/chunk0 + 1)).
  [[nodiscard]] std::size_t chunk_index(std::uint64_t offset) const {
    return static_cast<std::size_t>(
        std::bit_width((offset >> chunk0_bits_) + 1) - 1);
  }
  [[nodiscard]] std::uint64_t base(std::size_t k) const {
    return ((std::uint64_t{1} << k) - 1) << chunk0_bits_;
  }
  [[nodiscard]] std::uint64_t chunk_end(std::size_t k) const {
    return ((std::uint64_t{1} << (k + 1)) - 1) << chunk0_bits_;
  }

  /// End of the offsets chunk k backs: its whole range until it is
  /// installed, then the part of it the budget granted.
  [[nodiscard]] std::uint64_t held_end(std::size_t k) const {
    const std::uint64_t held = held_[k].load(std::memory_order_acquire);
    return held == 0 ? chunk_end(k) : base(k) + held;
  }

  /// Install chunk k, backing at least its first `need` bytes. Installs
  /// are serialized (at most kMaxChunks per pool), so held_[k] is set
  /// before the chunk is published and never changes.
  [[nodiscard]] bool ensure_chunk(std::size_t k, std::size_t need) {
    if (chunks_[k].load(std::memory_order_acquire) != nullptr) return true;
    std::lock_guard<SpinLock> lock(install_);
    if (chunks_[k].load(std::memory_order_relaxed) != nullptr) return true;
    std::size_t bytes = std::size_t{1} << (chunk0_bits_ + k);
    // When the budget refuses the whole chunk, back a part of it — half
    // the budget's headroom, at least `need` — so the budget, not the
    // chunk geometry, decides when the pool is full; only when even that
    // is refused is the pool exhausted.
    if (!budget_->try_reserve(bytes)) {
      const std::size_t used = budget_->used();
      const std::size_t limit = budget_->limit();
      const std::size_t headroom = used < limit ? limit - used : 0;
      bytes = std::min(bytes, std::max(headroom / 2, need));
      if (!budget_->try_reserve(bytes)) return false;
    }
    held_[k].store(bytes, std::memory_order_relaxed);
    chunks_[k].store(new std::byte[bytes], std::memory_order_release);
    charged_.fetch_add(bytes, std::memory_order_relaxed);
    return true;
  }

  Budget* budget_;
  unsigned chunk0_bits_ = 8;
  std::atomic<std::uint64_t> top_{0};
  std::atomic<std::size_t> charged_{0};
  std::atomic<std::uint64_t> skipped_{0};  // bump offsets never handed out
  SpinLock install_;  // serializes chunk installs
  std::array<std::atomic<std::byte*>, kMaxChunks> chunks_{};
  // Bytes backing chunk k once installed (less than its range when the
  // budget granted only part of it); 0 before.
  std::array<std::atomic<std::uint64_t>, kMaxChunks> held_{};
};

/// Append-only array of a trivial `T` in geometrically growing chunks:
/// chunk k holds 64 << k entries, so 26 chunks cover the 32-bit index
/// space. Chunks never move and are charged to the budget in full when
/// first reserved, like ChunkedBytePool's, so growth copies nothing and
/// never holds two arrays. One writer at a time; readers see an entry
/// through whatever published its index.
template <class Budget, class T = std::uint32_t>
class ChunkedIndex {
 public:
  explicit ChunkedIndex(Budget& budget) : budget_(&budget) {}

  ChunkedIndex(const ChunkedIndex&) = delete;
  ChunkedIndex& operator=(const ChunkedIndex&) = delete;

  /// Make entry `i` writable: false when the budget refuses its chunk or
  /// `i` lies past the last one.
  [[nodiscard]] bool reserve(std::uint32_t i) {
    const std::size_t k = chunk_of(i);
    if (k >= kChunks) return false;
    if (chunks_[k]) return true;
    const std::size_t bytes = entries(k) * sizeof(T);
    if (!budget_->try_reserve(bytes)) return false;
    chunks_[k].reset(new T[entries(k)]);
    charged_ += bytes;
    return true;
  }

  /// Write entry `i`, which reserve(i) admitted.
  void set(std::uint32_t i, T value) {
    const std::size_t k = chunk_of(i);
    chunks_[k][i - base(k)] = value;
  }

  /// reserve(i), then set(i, value); false when reserve refuses.
  [[nodiscard]] bool put(std::uint32_t i, T value) {
    if (!reserve(i)) return false;
    set(i, value);
    return true;
  }

  [[nodiscard]] T operator[](std::uint32_t i) const {
    const std::size_t k = chunk_of(i);
    return chunks_[k][i - base(k)];
  }

  /// Bytes charged to the budget: every chunk reserved so far.
  [[nodiscard]] std::size_t charged() const { return charged_; }

 private:
  static constexpr unsigned kChunk0Bits = 6;
  static constexpr std::size_t kChunks = 26;

  [[nodiscard]] static std::size_t chunk_of(std::uint32_t i) {
    return static_cast<std::size_t>(
        std::bit_width((std::uint64_t{i} >> kChunk0Bits) + 1) - 1);
  }
  [[nodiscard]] static std::uint32_t base(std::size_t k) {
    return static_cast<std::uint32_t>(((std::uint64_t{1} << k) - 1)
                                      << kChunk0Bits);
  }
  [[nodiscard]] static std::size_t entries(std::size_t k) {
    return std::size_t{1} << (kChunk0Bits + k);
  }

  Budget* budget_;
  std::size_t charged_ = 0;
  std::array<std::unique_ptr<T[]>, kChunks> chunks_{};
};

/// The slot array under both lock-free tables, with its occupancy count,
/// its budget charge and its resize epoch (see the header comment).
template <class Budget>
class AtomicSlots {
 public:
  /// A large array is mapped, populated up front, so once freed its pages
  /// go back at once and resident memory follows the charge; a small one
  /// comes from the heap, which is cheaper to set up.
  struct Array {
    explicit Array(std::size_t n) : count(n) {
      if (!mapped()) {
        words = new std::uint64_t[n]();
        return;
      }
      void* p = ::mmap(nullptr, bytes(n), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      words = static_cast<std::uint64_t*>(p);
    }
    ~Array() {
      mapped() ? void(::munmap(words, bytes(count))) : delete[] words;
    }
    Array(const Array&) = delete;
    Array& operator=(const Array&) = delete;

    std::size_t count;
    std::uint64_t* words = nullptr;
    [[nodiscard]] std::atomic_ref<std::uint64_t> word(std::size_t i) const {
      return std::atomic_ref<std::uint64_t>(words[i]);
    }
    [[nodiscard]] bool mapped() const { return bytes(count) >= (1u << 20); }
  };

  /// `initial` is rounded up to a power of two (floor 64, at most `max`)
  /// and charged unconditionally — a table that cannot afford its floor is
  /// born exhausted, not born lying (see MemoryBudget::charge).
  AtomicSlots(Budget& budget, std::size_t initial, std::size_t max)
      : budget_(&budget), max_(max) {
    std::size_t n = 64;
    while (n < initial && n < max) n <<= 1;
    if (!budget_->try_reserve(bytes(n))) budget_->charge(bytes(n));
    count_.store(n, std::memory_order_relaxed);
    array_.store(new Array(n), std::memory_order_relaxed);
  }

  ~AtomicSlots() { delete array_.load(std::memory_order_relaxed); }

  /// One insert: `probe(array)` runs inside the epoch and returns the
  /// table's answer, or nullopt at the hard cap, where the array must grow
  /// before another claim (`full` when it cannot). After a fresh insert,
  /// best-effort growth at 70% load keeps probe chains short. A resize
  /// places each word `w` at `home(w)`, from the word alone.
  template <class R, class Probe, class Home>
  [[nodiscard]] R insert(Probe probe, Home home, R full) {
    for (;;) {
      std::optional<R> r;
      {
        Guard guard(*this);
        r = probe(*array_.load(std::memory_order_acquire));
      }
      if (r) {
        if (fresh(*r) && over_load(7)) (void)grow(home);
        return *r;
      }
      if (!grow(home)) return full;
    }
  }

  /// Inside a probe: reserve occupancy BEFORE claiming a word. The count
  /// covers claims in flight, so `arr` provably never fills past `cap20`
  /// twentieths and every probe loop ends at an empty slot (counting
  /// published words alone would let concurrent claimers overshoot).
  /// False, with nothing reserved, at the cap.
  [[nodiscard]] bool reserve(const Array& arr, std::size_t cap20) {
    const std::size_t o = occupied_.fetch_add(1, std::memory_order_relaxed);
    if ((o + 1) * 20 < arr.count * cap20) return true;
    unreserve();
    return false;
  }

  /// Return the reservation of a claim that was lost or rolled back.
  void unreserve() { occupied_.fetch_sub(1, std::memory_order_relaxed); }

  /// Words held plus claims in flight.
  [[nodiscard]] std::size_t size() const {
    return occupied_.load(std::memory_order_relaxed);
  }

  /// Bytes of the array charged to the budget.
  [[nodiscard]] std::size_t charged() const {
    return bytes(count_.load(std::memory_order_relaxed));
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::size_t> writers{0};
  };

  /// Striped writer-presence count. Entering a stripe then checking
  /// `resizing_` (both seq_cst) guarantees: either the resizer's drain
  /// loop observes this writer and waits, or the writer observes the
  /// flag and backs out — never neither (total seq_cst order).
  class Guard {
   public:
    explicit Guard(AtomicSlots& s)
        : stripe_(s.stripes_[resize_stripe()].writers) {
      SpinBackoff backoff;
      for (;;) {
        stripe_.fetch_add(1, std::memory_order_seq_cst);
        if (!s.resizing_.load(std::memory_order_seq_cst)) return;
        stripe_.fetch_sub(1, std::memory_order_release);
        while (s.resizing_.load(std::memory_order_acquire)) backoff.pause();
      }
    }
    ~Guard() { stripe_.fetch_sub(1, std::memory_order_release); }
    Guard(const Guard&) = delete;

   private:
    std::atomic<std::size_t>& stripe_;
  };

  [[nodiscard]] static std::size_t bytes(std::size_t n) {
    return n * sizeof(std::uint64_t);
  }
  template <class R>
  [[nodiscard]] static bool fresh(const R& r) {
    if constexpr (std::is_same_v<R, InsertOutcome>)
      return r == InsertOutcome::Inserted;
    else
      return r.outcome == InsertOutcome::Inserted;
  }

  // Reads the count mirror, NOT the array pointer: this runs outside the
  // guard, where dereferencing the array would race the resizer's free.
  [[nodiscard]] bool over_load(std::size_t tenths) const {
    return size() * 10 > count_.load(std::memory_order_relaxed) * tenths;
  }

  /// Grow the array 2x. False only if the budget refuses the new array or
  /// it would pass the maximum. One resizer at a time; a concurrent caller
  /// waits for the active resize and reports success (the array grew).
  template <class Home>
  [[nodiscard]] bool grow(Home home) {
    bool expected = false;
    if (!resizing_.compare_exchange_strong(expected, true,
                                           std::memory_order_seq_cst)) {
      SpinBackoff backoff;
      while (resizing_.load(std::memory_order_acquire)) backoff.pause();
      return true;
    }
    Array* old = array_.load(std::memory_order_relaxed);
    const std::size_t fresh_count = old->count * 2;
    // Re-check under the flag: the resize that just finished may already
    // have grown past our trigger.
    bool grown = size() * 10 <= old->count * 7;
    if (!grown && fresh_count <= max_ &&
        budget_->try_reserve(bytes(fresh_count))) {
      // Quiesce writers: after every stripe drains, no claim is in flight.
      for (auto& s : stripes_) {
        SpinBackoff backoff;
        while (s.writers.load(std::memory_order_seq_cst) != 0) backoff.pause();
      }
      auto* fresh = new Array(fresh_count);
      const std::uint64_t mask = fresh_count - 1;
      for (std::size_t i = 0; i < old->count; ++i) {
        const std::uint64_t w = old->word(i).load(std::memory_order_relaxed);
        if (w == 0) continue;
        std::size_t slot = home(w) & mask;
        while (fresh->word(slot).load(std::memory_order_relaxed) != 0)
          slot = (slot + 1) & mask;
        fresh->word(slot).store(w, std::memory_order_relaxed);
      }
      array_.store(fresh, std::memory_order_release);
      count_.store(fresh_count, std::memory_order_relaxed);
      budget_->release(bytes(old->count));
      // Safe to free: drained writers re-enter through Guard, which loads
      // the array only after observing resizing_ == false.
      delete old;
      grown = true;
    }
    resizing_.store(false, std::memory_order_release);
    return grown;
  }

  Budget* budget_;
  std::size_t max_;
  std::atomic<Array*> array_{nullptr};
  std::atomic<bool> resizing_{false};
  std::atomic<std::size_t> occupied_{0};  // words + in-flight claims
  std::atomic<std::size_t> count_{0};     // mirror of array_->count
  std::array<Stripe, kResizeStripes> stripes_{};
};

/// What a record stores besides its bytes: nothing, a u32 (the sequential
/// set's insertion index) or a u64 (the parallel engine's packed BFS
/// parent). The value is the field's width in bytes.
enum class RecordLink : std::uint8_t { None = 0, Index = 4, Parent = 8 };

/// CAS-based open-addressing insert-if-absent over byte strings.
/// Records are framed [link, if any][len:u32][payload] in a
/// ChunkedBytePool; the returned ref is the record's byte offset.
///
/// Concurrency contract: insert() from any thread; at()/link_at() are
/// safe for any ref a completed insert returned (records are immutable
/// and never move); size() is an instantaneous count.
template <class Budget>
class AtomicByteTable {
 public:
  struct InsertResult {
    InsertOutcome outcome;
    std::uint32_t ref = 0;  // record offset; valid unless Exhausted
  };

  /// `initial_slots` is rounded up to a power of two (floor 64) and the
  /// slot array is charged unconditionally (AtomicSlots).
  AtomicByteTable(Budget& budget, std::size_t initial_slots,
                  std::size_t chunk0_bytes, RecordLink link)
      : slots_(budget, initial_slots, kMaxSlots),
        pool_(budget, chunk0_bytes),
        link_(link) {}

  /// Insert-if-absent. `h` is the key's hash (hash_bytes of the key),
  /// which callers already have for shard selection, so the table never
  /// hashes; equal keys must come with equal hashes. `link` is stored
  /// with a fresh record. The hard cap is 90%.
  [[nodiscard]] InsertResult insert(std::span<const std::byte> state,
                                    std::uint64_t h, std::uint64_t link = 0) {
    return slots_.insert(
        [&](auto& tab) { return try_insert(tab, state, h, link); },
        // Every word carries its home slot in its tag: a resize reads the
        // slot array only, never a record. A drained resize sees no claim
        // in flight, so no word is pending.
        [](std::uint64_t w) {
          CCREF_ASSERT(!(w & kPendingBit));
          return w >> 32;
        },
        InsertResult{InsertOutcome::Exhausted, 0});
  }

  /// Payload bytes of a stored record (stable span, never moves).
  [[nodiscard]] std::span<const std::byte> at(std::uint32_t ref) const {
    const std::byte* p = pool_.data(ref);
    std::uint32_t len = 0;
    std::memcpy(&len, p + link_bytes(), sizeof(len));
    return {p + header_bytes(), len};
  }

  /// The link stored with a record at insertion.
  [[nodiscard]] std::uint64_t link_at(std::uint32_t ref) const {
    CCREF_REQUIRE(link_ != RecordLink::None);
    const std::byte* p = pool_.data(ref);
    if (link_ == RecordLink::Index) {
      std::uint32_t v = 0;
      std::memcpy(&v, p, sizeof(v));
      return v;
    }
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }

  /// Records stored, plus claims in flight: exact whenever no insert is
  /// mid-flight.
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Summed payload lengths of stored records (headers excluded); exact
  /// whenever no insert is mid-flight.
  [[nodiscard]] std::size_t payload_bytes() const {
    return pool_.bytes_allocated() - size() * header_bytes();
  }

  /// Bytes charged to the budget: slot array(s) plus pool chunks.
  [[nodiscard]] std::size_t charged() const {
    return slots_.charged() + pool_.charged();
  }

  /// Pool bytes held but never occupied by a record (chunk-seam skips and
  /// the final chunk's tail).
  [[nodiscard]] std::size_t waste_bytes() const { return pool_.bytes_waste(); }

 private:
  using Array = typename AtomicSlots<Budget>::Array;

  static constexpr std::uint64_t kPendingBit = 1ull << 63;
  static constexpr std::uint64_t kTagMask = 0x7fffffff00000000ull;
  static constexpr std::uint64_t kOffMask = 0x00000000ffffffffull;
  // A word keeps 31 hash bits, so that is as far as it can place itself.
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 31;

  [[nodiscard]] std::size_t link_bytes() const {
    return static_cast<std::size_t>(link_);
  }
  [[nodiscard]] std::size_t header_bytes() const {
    return link_bytes() + sizeof(std::uint32_t);
  }
  /// The low 31 hash bits, in the word's tag field. Below kMaxSlots the
  /// home slot h & mask is a function of the tag alone.
  [[nodiscard]] static std::uint64_t tag_of(std::uint64_t h) {
    return (h << 32) & kTagMask;
  }

  // nullopt => hard load cap reached; the caller must resize and retry.
  [[nodiscard]] std::optional<InsertResult> try_insert(
      Array& tab, std::span<const std::byte> state, std::uint64_t h,
      std::uint64_t link) {
    const std::uint64_t mask = tab.count - 1;
    const std::uint64_t tag = tag_of(h);
    std::size_t slot = h & mask;
    SpinBackoff backoff;
    for (;;) {
      std::uint64_t w = tab.word(slot).load(std::memory_order_acquire);
      if (w == 0) {
        if (!slots_.reserve(tab, 18)) return std::nullopt;  // 90% cap
        if (!tab.word(slot).compare_exchange_strong(
                w, kPendingBit | tag, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          slots_.unreserve();
          continue;  // lost the claim; re-examine the refreshed word
        }
        const std::uint32_t off = append_record(state, link);
        if (off == ChunkedBytePool<Budget>::kNpos) {
          // Roll the claim back so the slot is reusable; spinners with a
          // matching tag resume probing from scratch.
          tab.word(slot).store(0, std::memory_order_release);
          slots_.unreserve();
          return InsertResult{InsertOutcome::Exhausted, 0};
        }
        tab.word(slot).store(tag | (std::uint64_t{off} + 1),
                             std::memory_order_release);
        return InsertResult{InsertOutcome::Inserted, off};
      }
      if (w & kPendingBit) {
        if ((w & kTagMask) == tag) {
          // Possibly our key mid-publish: wait for the owner's release
          // store (or its rollback to 0) and look again.
          backoff.pause();
          continue;
        }
        // Pending claim for a different hash: definitely not our key;
        // probe past it.
      } else if ((w & kTagMask) == tag) {
        const auto off = static_cast<std::uint32_t>((w & kOffMask) - 1);
        if (equals(off, state))
          return InsertResult{InsertOutcome::AlreadyPresent, off};
      }
      slot = (slot + 1) & mask;
    }
  }

  [[nodiscard]] std::uint32_t append_record(std::span<const std::byte> state,
                                            std::uint64_t link) {
    const std::uint32_t off = pool_.alloc(header_bytes() + state.size());
    if (off == ChunkedBytePool<Budget>::kNpos) return off;
    std::byte* p = pool_.data(off);
    if (link_ == RecordLink::Index) {
      const auto v = static_cast<std::uint32_t>(link);
      std::memcpy(p, &v, sizeof(v));
    } else if (link_ == RecordLink::Parent) {
      std::memcpy(p, &link, sizeof(link));
    }
    const auto len = static_cast<std::uint32_t>(state.size());
    std::memcpy(p + link_bytes(), &len, sizeof(len));
    if (!state.empty())
      std::memcpy(p + header_bytes(), state.data(), state.size());
    return off;
  }

  [[nodiscard]] bool equals(std::uint32_t off,
                            std::span<const std::byte> state) const {
    auto stored = at(off);
    return stored.size() == state.size() &&
           (state.empty() ||
            std::memcmp(stored.data(), state.data(), state.size()) == 0);
  }

  AtomicSlots<Budget> slots_;
  ChunkedBytePool<Budget> pool_;
  RecordLink link_;
};

/// Hash compaction's visited set (Stern & Dill 1995), lock-free in the
/// style of Laarman, van de Pol & Weber (FMCAD 2010): each slot word IS a
/// 64-bit fingerprint (0 = empty; fingerprint 0 folds onto 1, costing one
/// bit of the 64). An insert probes from fp & mask and claims an empty word
/// with one CAS: lost to the same fingerprint, it is a duplicate; lost to
/// another, it probes on. With growth refused, fresh fingerprints are taken
/// up to a hard 95% cap, then Exhausted; duplicates answer at any load. (At
/// 64 MB the next doubling IS the budget, so the cap decides capacity.)
template <class Budget>
class FingerprintTable {
 public:
  FingerprintTable(Budget& budget, std::size_t initial_slots)
      : slots_(budget, initial_slots, std::size_t{1} << 32) {}

  [[nodiscard]] InsertOutcome insert(std::uint64_t fp) {
    if (fp == 0) fp = 1;  // 0 marks an empty slot
    return slots_.insert([&](auto& tab) { return try_insert(tab, fp); },
                         [](std::uint64_t w) { return w; },
                         InsertOutcome::Exhausted);
  }

  /// Fingerprints held, plus claims in flight.
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Bytes of the slot array charged to the budget.
  [[nodiscard]] std::size_t charged() const { return slots_.charged(); }

 private:
  // nullopt => a fresh fingerprint at the cap.
  [[nodiscard]] std::optional<InsertOutcome> try_insert(
      typename AtomicSlots<Budget>::Array& tab, std::uint64_t fp) {
    const std::uint64_t mask = tab.count - 1;
    std::size_t slot = fp & mask;
    for (;;) {
      std::uint64_t w = tab.word(slot).load();
      if (w == fp) return InsertOutcome::AlreadyPresent;
      if (w == 0) {
        if (!slots_.reserve(tab, 19)) return std::nullopt;  // 95% cap
        if (tab.word(slot).compare_exchange_strong(w, fp))
          return InsertOutcome::Inserted;
        slots_.unreserve();
        continue;  // lost the word: `w` now holds the winner; look again
      }
      slot = (slot + 1) & mask;
    }
  }

  AtomicSlots<Budget> slots_;
};

}  // namespace ccref

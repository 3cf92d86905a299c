// The parallel engine's frontier, by reference: each worker's Chase–Lev
// deque holds 8-byte handles of queued states, never their bytes.
//
// Full storage and Collapse: a handle is pack(ref) + 1 (0 is the deques'
// empty mark), and the taker reads the state back from its published
// record — under Collapse by expanding the record's tuple through the
// shared dictionaries, which is safe mid-run (DESIGN.md §4.6). The one
// exception is the successor a worker queued last: it keeps a copy of that
// encoding, because its next LIFO pop usually returns exactly that state.
//
// Hash compaction: a record holds only a fingerprint, so nothing in the
// visited set can give a worker back the bytes of the state it pops. Each
// worker therefore appends every fresh state to its own FrontierLog — the
// record's packed Ref and its encoding — and pushes the entry's address as
// the state's handle. Whoever takes the handle (the owner's pop or a
// thief's steal) copies the entry out and consumes it. This is the
// parallel twin of the sequential set's FIFO window (collapse.hpp), and
// like it every byte is charged to the run's MemoryBudget.
//
// Layout: chunks of kChunkBytes, aligned to kChunkBytes, so an entry's
// address masked down is its chunk; the chunk's first word points at its
// header. Entries are [ref:8][len:4][bytes], packed (read with memcpy),
// and always start inside the first kChunkBytes of their chunk (an
// encoding too big for a chunk gets one of its own, sized up to fit), so
// the mask works for every entry.
//
// Release: a chunk's `holds` counts its unconsumed entries plus one while
// the owner still appends to it. The thread that drops it to zero — the
// owner moving on, a pop or a steal consuming the last entry — frees the
// chunk and releases its charge. An owner that consumes the entry it
// appended last rewinds its append point over it. Owner pops are LIFO and
// steals take the oldest entries, so the live entries stay one contiguous
// run and a log holds little beyond the frontier itself. Headers stay
// with the owner, which drops those of freed chunks whenever it opens a
// new one; the destructor frees the chunks a stopped run left.
//
// Ordering: an entry is written before its handle is pushed, and the
// deque's push/steal publish and acquire the cell (work_steal_deque.hpp),
// so a thief reads a complete entry. `holds` is decremented acq_rel, so
// the freeing thread sees every other consumer's reads finished.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <sys/mman.h>
#include <span>
#include <vector>

#include "support/work_steal_deque.hpp"
#include "verify/memory_budget.hpp"
#include "verify/sharded_state_set.hpp"

namespace ccref::verify {

class FrontierLog {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

  /// A consumed-once view of one entry.
  struct Entry {
    std::uint64_t ref;  // ShardedStateSet::pack of the state's record
    std::span<const std::byte> bytes;
  };

  explicit FrontierLog(MemoryBudget& budget) : budget_(&budget) {}

  FrontierLog(const FrontierLog&) = delete;
  FrontierLog& operator=(const FrontierLog&) = delete;

  ~FrontierLog() {
    // Run after every worker joined: a chunk still held has entries that a
    // stopped run never consumed.
    for (auto& c : chunks_)
      if (c->holds.load(std::memory_order_relaxed) != 0) free_chunk(*c);
  }

  /// Owner only. Copy `bytes` with `ref` into the log and return the
  /// entry's handle (its address, never 0); 0 when the budget refuses the
  /// chunk it needs.
  [[nodiscard]] std::uint64_t append(std::uint64_t ref,
                                     std::span<const std::byte> bytes) {
    const std::size_t need = entry_bytes(bytes.size());
    // Entries must start inside the first kChunkBytes: an oversized
    // chunk takes its one entry and no more.
    if (head_ == nullptr || used_ >= kChunkBytes || used_ + need > head_->size)
      if (!open_chunk(need)) return 0;
    std::byte* e = head_->data + used_;
    const auto len = static_cast<std::uint32_t>(bytes.size());
    std::memcpy(e, &ref, sizeof(ref));
    std::memcpy(e + sizeof(ref), &len, sizeof(len));
    if (!bytes.empty()) std::memcpy(e + kEntryHeader, bytes.data(), len);
    used_ += need;
    head_->holds.fetch_add(1, std::memory_order_relaxed);
    return reinterpret_cast<std::uint64_t>(e);
  }

  /// Any thread holding `handle`: the entry it names.
  [[nodiscard]] static Entry entry(std::uint64_t handle) {
    const auto* e = reinterpret_cast<const std::byte*>(handle);
    Entry out{};
    std::uint32_t len = 0;
    std::memcpy(&out.ref, e, sizeof(out.ref));
    std::memcpy(&len, e + sizeof(out.ref), sizeof(len));
    out.bytes = {e + kEntryHeader, len};
    return out;
  }

  /// Any thread, exactly once per handle, after its entry's last read.
  /// Taking back the entry this log appended last (the owner's LIFO pop)
  /// also frees its bytes for the next append, so a log the owner alone
  /// drains is a stack of its live entries.
  void consume(std::uint64_t handle) {
    auto* base = reinterpret_cast<std::byte*>(handle & ~(kChunkBytes - 1));
    Chunk* c = nullptr;
    std::memcpy(&c, base, sizeof(c));
    if (c == head_) {
      const auto at = static_cast<std::size_t>(
          reinterpret_cast<std::byte*>(handle) - base);
      if (at + entry_bytes(entry(handle).bytes.size()) == used_) used_ = at;
    }
    drop(*c);
  }

  /// Owner only: stop appending, so the chunk it appends to is freed with
  /// its last entry (at once, if that is consumed already).
  void seal() {
    if (head_ == nullptr) return;
    drop(*head_);
    head_ = nullptr;
  }

  /// Bytes of chunks held; readable from any thread.
  [[nodiscard]] std::size_t charged() const {
    return charged_.load(std::memory_order_relaxed);
  }

 private:
  // [ref:8][len:4], then the bytes.
  static constexpr std::size_t kEntryHeader = 12;
  // The first word of every chunk points at its header.
  static constexpr std::size_t kChunkHeader = sizeof(void*);

  struct Chunk {
    FrontierLog* log = nullptr;
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::atomic<std::uint32_t> holds{1};  // unconsumed entries + the owner
    std::atomic<bool> freed{false};       // set last, by the freeing thread
  };

  [[nodiscard]] static std::size_t entry_bytes(std::size_t len) {
    return kEntryHeader + len;
  }

  [[nodiscard]] bool open_chunk(std::size_t need) {
    seal();
    // Drop the headers of chunks every consumer is done with.
    std::erase_if(chunks_, [](const std::unique_ptr<Chunk>& c) {
      return c->freed.load(std::memory_order_acquire);
    });
    std::size_t size = kChunkBytes;
    while (size < kChunkHeader + need) size <<= 1;
    if (!budget_->try_reserve(size)) return false;
    std::byte* data = map_chunk(size);
    if (data == nullptr) {
      budget_->release(size);
      return false;
    }
    charged_.fetch_add(size, std::memory_order_relaxed);
    auto c = std::make_unique<Chunk>();
    c->log = this;
    c->size = size;
    c->data = data;
    Chunk* header = c.get();
    std::memcpy(c->data, &header, sizeof(header));
    head_ = header;
    used_ = kChunkHeader;
    chunks_.push_back(std::move(c));
    return true;
  }

  static void drop(Chunk& c) {
    if (c.holds.fetch_sub(1, std::memory_order_acq_rel) == 1)
      c.log->free_chunk(c);
  }

  // Chunks are mapped, not heap-allocated, so a freed chunk returns its
  // pages at once instead of leaving aligned holes in the heap: resident
  // memory follows the charge. nullptr when the kernel refuses.
  [[nodiscard]] static std::byte* map_chunk(std::size_t size) {
    void* p = ::mmap(nullptr, size + kChunkBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return nullptr;
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    const auto start = (at + kChunkBytes - 1) & ~(kChunkBytes - 1);
    if (start != at) ::munmap(p, start - at);
    if (const std::size_t tail = at + kChunkBytes - start; tail != 0)
      ::munmap(reinterpret_cast<void*>(start + size), tail);
    return reinterpret_cast<std::byte*>(start);
  }

  void free_chunk(Chunk& c) {
    ::munmap(c.data, c.size);
    budget_->release(c.size);
    charged_.fetch_sub(c.size, std::memory_order_relaxed);
    c.freed.store(true, std::memory_order_release);
  }

  MemoryBudget* budget_;
  Chunk* head_ = nullptr;  // the chunk appends go to; owner only
  std::size_t used_ = 0;   // bytes of head_ written
  std::vector<std::unique_ptr<Chunk>> chunks_;  // owner only
  std::atomic<std::size_t> charged_{0};
};

/// One worker's share of the parallel frontier: its deque of handles and
/// what turns a handle back into a state. The deque's rings and the log's
/// chunks are charged to the visited set's budget.
class ParFrontier {
 public:
  using Ref = ShardedStateSet::Ref;

  /// A taken state: its Ref and its encoding, valid until the taker's
  /// next take().
  struct Taken {
    Ref ref;
    std::span<const std::byte> bytes;
  };

  explicit ParFrontier(ShardedStateSet& seen)
      : seen_(&seen),
        compacted_(seen.fingerprinted()),
        deque_(64, &seen.budget()),
        log_(seen.budget()) {}

  /// Owner only: queue fresh state `ref` whose encoding is `bytes`. False
  /// when the budget refuses a log chunk or a bigger ring.
  [[nodiscard]] bool push(Ref ref, std::span<const std::byte> bytes) {
    std::uint64_t h = ShardedStateSet::pack(ref) + 1;
    if (compacted_) {
      h = log_.append(ShardedStateSet::pack(ref), bytes);
      if (h == 0) return false;
    } else if (seen_->collapses()) {
      fresh_.assign(bytes.begin(), bytes.end());
      fresh_handle_ = h;
    }
    return deque_.push(h);
  }

  /// Owner only: the newest handle; 0 when empty.
  [[nodiscard]] std::uint64_t pop() { return deque_.pop(); }

  /// Any thread: the oldest handle; 0 when empty or on a lost race.
  [[nodiscard]] std::uint64_t steal() { return deque_.steal(); }

  /// The taker (on its own frontier), for a handle it popped or stole from
  /// any worker's. A log entry is copied out and consumed at once, so the
  /// live entries of a log stay one contiguous run: the deque's.
  [[nodiscard]] Taken take(std::uint64_t handle) {
    if (compacted_) {
      const auto e = FrontierLog::entry(handle);
      expanded_.assign(e.bytes.begin(), e.bytes.end());
      log_.consume(handle);
      return {ShardedStateSet::unpack(e.ref), expanded_};
    }
    const Ref ref = ShardedStateSet::unpack(handle - 1);
    if (handle != fresh_handle_) return {ref, seen_->at(ref, expanded_)};
    expanded_.swap(fresh_);
    return {ref, expanded_};
  }

  /// Owner only, when it stops taking work.
  void seal() { log_.seal(); }

  /// Bytes held, readable from any thread: deque rings, log chunks.
  [[nodiscard]] std::size_t ring_bytes() const { return deque_.charged(); }
  [[nodiscard]] std::size_t log_bytes() const { return log_.charged(); }

 private:
  ShardedStateSet* seen_;
  bool compacted_;
  WorkStealDeque<std::uint64_t, MemoryBudget> deque_;
  FrontierLog log_;  // hash compaction only; holds no chunk else
  // Collapse: the taken state's expansion, and the encoding of the last
  // fresh state pushed under its handle.
  std::vector<std::byte> expanded_;
  std::vector<std::byte> fresh_;
  std::uint64_t fresh_handle_ = 0;
};

namespace detail {

/// What a parallel run holds, as a test samples it: the visited set, whose
/// budget carries every charge, and the bytes of the frontier — deque
/// rings and hash compaction's log chunks. par_explore passes one after
/// each expansion and a last one, `joined`, once the workers have joined
/// (only then are the set's quiescent counters exact to read).
struct FrontierSample {
  const ShardedStateSet& seen;
  std::size_t ring_bytes = 0;
  std::size_t log_bytes = 0;
  bool joined = false;
};
using FrontierProbe = std::function<void(const FrontierSample&)>;

}  // namespace detail

}  // namespace ccref::verify


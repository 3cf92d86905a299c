// The frontier of hash compaction: full encodings of queued states, kept in
// budget-charged chunks until they are expanded. A fingerprint table keeps
// no state bytes, so each fresh state is appended to a FrontierLog — a ref
// of the appender's choosing and the encoding — and read back once. The
// parallel engine (par_frontier.hpp) gives each worker a log and pushes an
// entry's address as the state's deque handle; whoever takes the handle (a
// pop or a steal) reads and consumes the entry. The sequential engine
// (CollapsedStateSet) reads its one log in append order through
// take_oldest(): the log is its BFS queue.
//
// Layout: chunks of kChunkBytes, aligned to kChunkBytes, so an entry's
// address masked down is its chunk; the chunk's first word points at its
// header. Entries are [ref:8][len:4][bytes], packed (read with memcpy),
// and always start inside the first kChunkBytes of their chunk (an
// encoding too big for a chunk gets one of its own, sized up to fit), so
// the mask works for every entry.
//
// Release: a chunk's `holds` counts its unconsumed entries plus one while
// the owner still appends to it; whichever thread drops it to zero frees
// the chunk. Consumers take the newest entry (an owner's pop, which also
// rewinds the append point) or the oldest (steals, sequential reads), so
// the live entries stay one contiguous run. Headers stay with the owner,
// which drops those of freed chunks whenever it opens a new one.
//
// Ordering: an entry is written before its handle is pushed, and the
// deque's push/steal publish and acquire the cell (work_steal_deque.hpp),
// so a thief reads a complete entry. `holds` is decremented acq_rel, so
// the freeing thread sees every other consumer's reads finished.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <sys/mman.h>
#include <vector>

#include "support/contracts.hpp"
#include "verify/memory_budget.hpp"

namespace ccref::verify {

class FrontierLog {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

  /// A consumed-once view of one entry.
  struct Entry {
    std::uint64_t ref;  // what the appender stored with the state
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

  /// Owner only: make sure the next append of `len` bytes finds room,
  /// opening its chunk now if it needs one; false when the budget refuses.
  [[nodiscard]] bool reserve(std::size_t len) {
    const std::size_t need = entry_bytes(len);
    // Entries must start inside the first kChunkBytes: an oversized
    // chunk takes its one entry and no more.
    if (head_ != nullptr && used_ < kChunkBytes && used_ + need <= head_->size)
      return true;
    return open_chunk(need);
  }

  /// Owner only. Copy `bytes` with `ref` into the log and return the
  /// entry's handle (its address, never 0); 0 when the budget refuses the
  /// chunk it needs.
  [[nodiscard]] std::uint64_t append(std::uint64_t ref,
                                     std::span<const std::byte> bytes) {
    if (!reserve(bytes.size())) return 0;
    std::byte* e = head_->data + used_;
    const auto len = static_cast<std::uint32_t>(bytes.size());
    std::memcpy(e, &ref, sizeof(ref));
    std::memcpy(e + sizeof(ref), &len, sizeof(len));
    if (!bytes.empty()) std::memcpy(e + kEntryHeader, bytes.data(), len);
    used_ += entry_bytes(len);
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

  /// Owner only, for a log read in append order (the sequential BFS): copy
  /// the oldest entry into `out` and consume it. The log must hold one.
  void take_oldest(std::vector<std::byte>& out) {
    // Chunks are freed oldest first, so the first live one holds the
    // oldest entry, at its read offset.
    auto live = std::find_if(chunks_.begin(), chunks_.end(), [](const auto& c) {
      return !c->freed.load(std::memory_order_relaxed);
    });
    CCREF_REQUIRE(live != chunks_.end() &&
                  (live->get() != head_ || (*live)->read < used_));
    Chunk& c = **live;
    const auto handle = reinterpret_cast<std::uint64_t>(c.data + c.read);
    const auto bytes = entry(handle).bytes;
    out.assign(bytes.begin(), bytes.end());
    c.read += entry_bytes(bytes.size());
    consume(handle);
    // Taking the newest entry rewound the append point: the next entry
    // lands where this one was.
    if (&c == head_) c.read = std::min(c.read, used_);
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
    std::size_t read = kChunkHeader;      // take_oldest's next entry
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

}  // namespace ccref::verify

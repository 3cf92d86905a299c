// Indexed object pool for discrete-event simulation.
//
// Events live in fixed-size chunks and are addressed by 32-bit handles, so an
// event-queue entry carries a 32-bit handle instead of a pointer to a heap
// node. alloc()/release() recycle slots through an intrusive free list:
// after warm-up the simulator runs with zero per-event heap traffic, and
// the chunked backing store never moves live objects (no reallocation
// invalidation, unlike one growing vector).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/contracts.hpp"

namespace ccref {

template <class T>
class EventPool {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = 0xffffffffu;

  /// Number of objects per chunk; 4096 keeps a chunk of typical event sizes
  /// (16–32 bytes) inside one or two huge-page-friendly 64 KB spans.
  static constexpr std::uint32_t kChunkSize = 4096;

  [[nodiscard]] Handle alloc() {
    if (free_head_ != kNull) {
      Handle h = free_head_;
      Slot& s = slot(h);
      free_head_ = s.next_free;
      s.next_free = kLive;
      --free_count_;
      return h;
    }
    if (next_ == chunks_.size() * kChunkSize)
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    Handle h = static_cast<Handle>(next_++);
    slot(h).next_free = kLive;
    return h;
  }

  void release(Handle h) {
    Slot& s = slot(h);
    CCREF_ASSERT_MSG(s.next_free == kLive, "double release of a pool handle");
    s.next_free = free_head_;
    free_head_ = h;
    ++free_count_;
  }

  [[nodiscard]] T& operator[](Handle h) { return slot(h).value; }
  [[nodiscard]] const T& operator[](Handle h) const { return slot(h).value; }

  /// Live objects (allocated and not released).
  [[nodiscard]] std::size_t size() const { return next_ - free_count_; }
  /// Slots ever created, live or on the free list.
  [[nodiscard]] std::size_t capacity() const { return next_; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return chunks_.size() * kChunkSize * sizeof(Slot);
  }

 private:
  // Distinguishes live slots from free-listed ones; kNull is a valid list
  // terminator, so the live tag is a second reserved handle value.
  static constexpr Handle kLive = 0xfffffffeu;

  struct Slot {
    T value;
    Handle next_free = kLive;
  };

  [[nodiscard]] Slot& slot(Handle h) {
    CCREF_ASSERT(h < next_);
    return chunks_[h / kChunkSize][h % kChunkSize];
  }
  [[nodiscard]] const Slot& slot(Handle h) const {
    CCREF_ASSERT(h < next_);
    return chunks_[h / kChunkSize][h % kChunkSize];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t next_ = 0;
  std::size_t free_count_ = 0;
  Handle free_head_ = kNull;
};

}  // namespace ccref

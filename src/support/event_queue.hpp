// Timing-wheel event queue for discrete-event simulation (Varghese & Lauck,
// SOSP 1987, hashed wheel with one-cycle slots).
//
// An exact (time, payload) priority queue in two parts:
//
//   * a wheel of kSlots one-cycle slots covering [cur, cur + kSlots), where
//     `cur` is the latest time popped. Slot `time % kSlots` holds only
//     entries of that one time, chained through one node pool (no slot
//     owns a buffer); a 16-word occupancy bitmap finds the next non-empty
//     slot with countr_zero. Push is O(1); pop scans the bitmap and the
//     slot's equal-time chain for its smallest payload.
//   * a binary heap over one 128-bit key `time << 64 | payload` for every
//     other push: far-future times and times below `cur`.
//
// Pop compares the wheel's best with the heap's top, so the order is exact
// whichever part holds an entry. Advancing `cur` keeps every wheel entry
// inside the window: they are all >= the popped minimum and < the old
// window end. The simulator's events nearly all land within kSlots cycles
// of the clock, so the heap stays small or empty.
//
// Payloads are 32-bit handles (see support/event_pool.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

namespace ccref {

class EventQueue {
 public:
  EventQueue() { head_.fill(kNil); }

  void push(std::uint64_t time, std::uint32_t payload) {
    ++size_;
    if (time - cur_ >= kSlots) {  // unsigned: also catches time < cur_
      heap_.push_back(key(time, payload));
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      return;
    }
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    const std::size_t s = time % kSlots;
    nodes_[n] = {payload, head_[s]};
    head_[s] = n;
    occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
  }

  /// Remove the minimum entry (ties broken by payload). Returns false when
  /// empty.
  [[nodiscard]] bool pop(std::uint64_t& time, std::uint32_t& payload) {
    if (size_ == 0) return false;
    --size_;
    if (const std::size_t s = next_slot(); s != kSlots) {
      const std::uint64_t t = cur_ + ((s - cur_) % kSlots);
      std::uint32_t* best = &head_[s];
      for (std::uint32_t* link = &nodes_[*best].next; *link != kNil;
           link = &nodes_[*link].next)
        if (nodes_[*link].payload < nodes_[*best].payload) best = link;
      const std::uint32_t n = *best;
      if (heap_.empty() || key(t, nodes_[n].payload) < heap_.front()) {
        time = cur_ = t;
        payload = nodes_[n].payload;
        *best = nodes_[n].next;
        nodes_[n].next = free_;
        free_ = n;
        if (head_[s] == kNil)
          occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
        return true;
      }
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Key k = heap_.back();
    heap_.pop_back();
    time = static_cast<std::uint64_t>(k >> 64);
    payload = static_cast<std::uint32_t>(k);
    cur_ = std::max(cur_, time);
    return true;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  using Key = unsigned __int128;
  static constexpr std::size_t kSlots = 1024;
  static constexpr std::size_t kWords = kSlots / 64;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    std::uint32_t payload;
    std::uint32_t next;
  };

  [[nodiscard]] static Key key(std::uint64_t time, std::uint32_t payload) {
    return Key{time} << 64 | payload;
  }

  /// First occupied slot at or after cur_'s slot, circularly (= the
  /// earliest wheel time); kSlots when the wheel is empty.
  [[nodiscard]] std::size_t next_slot() const {
    const std::size_t s = cur_ % kSlots;
    std::size_t w = s / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (s % 64));
    // kWords + 1 words: the wrap revisits word w for its slots below s.
    for (std::size_t i = 0; i <= kWords; ++i) {
      if (bits) return w * 64 + std::countr_zero(bits);
      w = (w + 1) % kWords;
      bits = occupied_[w];
    }
    return kSlots;
  }

  std::vector<Node> nodes_;  // slot chains and the free list share one pool
  std::vector<Key> heap_;    // min-heap by std::greater
  std::array<std::uint32_t, kSlots> head_;  // kNil: empty slot
  std::array<std::uint64_t, kWords> occupied_{};
  std::uint64_t cur_ = 0;  // wheel window is [cur_, cur_ + kSlots)
  std::uint32_t free_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace ccref

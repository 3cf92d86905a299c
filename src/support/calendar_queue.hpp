// Batched calendar queue (Brown 1988) for discrete-event simulation.
//
// A priority queue over 64-bit cycle timestamps with O(1) amortized push and
// pop: time is divided into fixed-width "days" hashed onto a ring of
// buckets, so pop scans only the current day's bucket. The day width is a
// power of two, so an entry's day is one shift (`time >> shift_`) and its
// bucket one mask — no division anywhere on the push or pop path. Buckets
// are unsorted batches (a push is an append, never an insertion sort); pop
// pays one linear scan of the current bucket, which beats a binary heap's
// pointer-chasing log n for the millions-of-events queues the simulator
// runs. The ring doubles/halves and re-estimates the day width as the
// population drifts, keeping average occupancy near one entry per bucket.
//
// Pops come out in exact (time, payload) order at any day width: every
// entry of one time shares one day, and the cursor never passes a pending
// day. So the width only moves the cost of a pop, never its result.
//
// Payloads are 32-bit handles (see support/event_pool.hpp); an entry is 12
// bytes. A resize clears the buckets the new ring keeps and refills them in
// place, so their storage is recycled; a halving frees the upper half.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/contracts.hpp"

namespace ccref {

class CalendarQueue {
 public:
  /// `width_hint` is the expected gap between consecutive event times in
  /// cycles, rounded down to a power of two; 0 lets the first resize
  /// estimate it from the live population.
  explicit CalendarQueue(std::uint64_t width_hint = 0)
      : shift_(width_hint ? log2_floor(width_hint) : 0) {
    buckets_.resize(kMinBuckets);
  }

  void push(std::uint64_t time, std::uint32_t payload) {
    // Keep the cursor at or before every pending entry: an enqueue into an
    // already-scanned day must pull the cursor back or pop would return a
    // later event first (Brown's "enqueue below current time" rule).
    const std::uint64_t day = time >> shift_;
    if (day < tick_) tick_ = day;
    buckets_[day & (buckets_.size() - 1)].push_back({time, payload});
    ++size_;
    if (size_ > buckets_.size() * 2) resize(buckets_.size() * 2);
  }

  /// Remove the minimum entry (ties broken by payload). Returns false when
  /// empty.
  [[nodiscard]] bool pop(std::uint64_t& time, std::uint32_t& payload) {
    if (size_ == 0) return false;
    // Scan forward one day at a time; entries at or before the cursor's day
    // are due. A full fruitless rotation (sparse queue, every pending event
    // far in the future) falls through to a direct jump to the global
    // minimum so pop stays O(n/nbuckets) amortized, not O(year length).
    for (std::size_t attempt = 0; attempt < buckets_.size(); ++attempt) {
      if (pop_due(time, payload)) return true;
      ++tick_;
    }
    std::uint64_t min_time = ~std::uint64_t{0};
    for (const auto& b : buckets_)
      for (const Entry& e : b) min_time = std::min(min_time, e.time);
    tick_ = min_time >> shift_;
    bool ok = pop_due(time, payload);
    CCREF_ASSERT_MSG(ok, "calendar accounting: size_ > 0 but no entry found");
    return ok;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] std::uint64_t day_width() const {
    return std::uint64_t{1} << shift_;
  }

 private:
  struct Entry {
    std::uint64_t time;
    std::uint32_t payload;
  };
  static constexpr std::size_t kMinBuckets = 16;

  /// log2 of the largest power of two <= `w` (>= 1). Rounding down keeps
  /// days narrower than the estimate, which scans fewer later-lap entries
  /// per pop than rounding up or to nearest.
  [[nodiscard]] static int log2_floor(std::uint64_t w) {
    return std::bit_width(w) - 1;
  }

  /// Pop the best due entry (day <= tick_) from the cursor's bucket.
  [[nodiscard]] bool pop_due(std::uint64_t& time, std::uint32_t& payload) {
    auto& b = buckets_[tick_ & (buckets_.size() - 1)];
    std::size_t best = b.size();
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b[i].time >> shift_ > tick_) continue;  // a later lap of the ring
      if (best == b.size() || b[i].time < b[best].time ||
          (b[i].time == b[best].time && b[i].payload < b[best].payload))
        best = i;
    }
    if (best == b.size()) return false;
    time = b[best].time;
    payload = b[best].payload;
    b[best] = b.back();
    b.pop_back();
    --size_;
    if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 2)
      resize(buckets_.size() / 2);
    return true;
  }

  void resize(std::size_t nbuckets) {
    const std::uint64_t cursor_time = tick_ << shift_;
    all_.clear();
    for (auto& b : buckets_) {
      all_.insert(all_.end(), b.begin(), b.end());
      b.clear();
    }
    // Re-estimate the day width from the population: the average separation
    // of a sorted sample, aiming at ~1 entry per bucket per day, rounded
    // down to a power of two. Only the sample is sorted, not the queue.
    if (all_.size() >= 2) {
      sample_.clear();
      const std::size_t step = std::max<std::size_t>(1, all_.size() / 64);
      for (std::size_t i = 0; i < all_.size(); i += step)
        sample_.push_back(all_[i].time);
      std::sort(sample_.begin(), sample_.end());
      if (sample_.size() >= 2 && sample_.back() > sample_.front())
        shift_ = log2_floor(std::max<std::uint64_t>(
            1, 2 * (sample_.back() - sample_.front()) / (sample_.size() - 1)));
    }
    buckets_.resize(std::max(nbuckets, kMinBuckets));
    tick_ = ~std::uint64_t{0};
    for (const Entry& e : all_) {
      const std::uint64_t day = e.time >> shift_;
      tick_ = std::min(tick_, day);
      buckets_[day & (buckets_.size() - 1)].push_back(e);
    }
    if (all_.empty()) tick_ = cursor_time >> shift_;
  }

  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> all_;             // resize scratch, kept for reuse
  std::vector<std::uint64_t> sample_;  // resize scratch, kept for reuse
  int shift_;                          // day width is 1 << shift_
  std::uint64_t tick_ = 0;  // current day: entries with time >> shift_ <=
                            // tick_ are due
  std::size_t size_ = 0;
};

}  // namespace ccref

// Shared memory budget for visited-state storage.
//
// Table 3 of the paper caps each verification at 64 MB. Every structure
// of a visited set — the parallel engine's K shards, their dictionaries,
// the sequential engine's order index — draws on ONE budget; otherwise K
// shards would quietly get K×64 MB and `Unfinished` would stop meaning
// what the paper means. Reservations are lock-free (CAS on a single
// atomic) so shards never serialize on the accountant.
#pragma once

#include <atomic>
#include <cstddef>

namespace ccref::verify {

class MemoryBudget {
 public:
  explicit MemoryBudget(std::size_t limit_bytes) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Charge `delta` bytes against the budget; false (and no charge) if the
  /// total would exceed the limit.
  [[nodiscard]] bool try_reserve(std::size_t delta) {
    std::size_t used = used_.load(std::memory_order_relaxed);
    for (;;) {
      if (used + delta > limit_) return false;
      if (used_.compare_exchange_weak(used, used + delta,
                                      std::memory_order_relaxed))
        return true;
    }
  }

  /// Return `delta` previously reserved bytes (e.g. a hash table freed
  /// after growth).
  void release(std::size_t delta) {
    used_.fetch_sub(delta, std::memory_order_relaxed);
  }

  /// Unconditionally record `delta` bytes as used, even past the limit.
  /// For construction-time floors (a table needs SOME slot array to exist):
  /// the memory is already allocated, so refusing the charge would make
  /// used() lie. used() may then exceed limit(), and every subsequent
  /// try_reserve fails until a matching release — the structure is born
  /// exhausted rather than born dishonest.
  void charge(std::size_t delta) {
    used_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t used() const {
    return used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t limit() const { return limit_; }

 private:
  std::atomic<std::size_t> used_{0};
  std::size_t limit_;
};

}  // namespace ccref::verify

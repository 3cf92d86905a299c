// Chase–Lev work-stealing deque (SPAA'05), specialized to pointer-sized
// payloads for the parallel checker's frontiers (8-byte state handles).
//
// One owner thread pushes and pops at the bottom (both lock-free, no CAS
// on the fast path); any other thread steals from the top with a single
// CAS. The owner and thieves race only on the last element, which the
// CAS on `top_` arbitrates.
//
// Memory-ordering note: the textbook formulation uses standalone
// memory fences. ThreadSanitizer does not model std::atomic_thread_fence
// and reports false races through it, so this implementation puts
// seq_cst on the top_/bottom_ accesses that need StoreLoad ordering
// instead — marginally slower on weakly-ordered hardware, but TSan can
// verify every run of it (the TSan CI sweep is part of the acceptance
// criteria for the lock-free engine).
//
// Ring growth: the owner copies the live window into a ring of twice
// the capacity and publishes it. A thief that loaded the old ring pointer
// may still read a cell from it — the cell it reads is in the copied
// window and still holds the correct value (cells are never overwritten
// until `bottom_` laps them, which the capacity check prevents while any
// un-stolen entry remains) — so the old ring is retired, not freed. A
// thief announces itself in `readers_` (seq_cst) before it loads the ring
// pointer and leaves after reading its cell; the owner publishes a grown
// ring (seq_cst), then frees every retired ring if it reads no reader. In
// the seq_cst order a thief that announced itself after that read loads
// the new ring, and one that left before it finished its read (its
// release pairs with the owner's load), so no freed ring is ever read.
//
// Ring accounting: a deque built with a budget charges every ring it
// allocates — the first unconditionally, each grown one with try_reserve —
// and releases each ring it frees. A refused growth fails the push, so a
// frontier never outgrows the budget it runs under.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/contracts.hpp"

namespace ccref {

/// The budget of a deque that charges nothing.
struct UnchargedRings {
  [[nodiscard]] bool try_reserve(std::size_t) { return true; }
  void charge(std::size_t) {}
  void release(std::size_t) {}
};

/// T must be a pointer or a pointer-sized integer (a trivially copyable
/// handle); T{} (null, 0) is the "empty / lost race" sentinel and must
/// never be pushed. `Budget` provides try_reserve/charge/release
/// (verify::MemoryBudget) and must outlive the deque.
template <class T, class Budget = UnchargedRings>
class WorkStealDeque {
 public:
  explicit WorkStealDeque(std::size_t initial_capacity = 64,
                          Budget* budget = nullptr)
      : budget_(budget) {
    std::size_t cap = 8;
    while (cap < initial_capacity) cap <<= 1;
    // The first ring exists whatever the budget says: charged, not asked.
    if (budget_ != nullptr) budget_->charge(Ring::bytes(cap));
    charged_.store(Ring::bytes(cap), std::memory_order_relaxed);
    active_.store(new Ring(cap), std::memory_order_relaxed);
  }

  WorkStealDeque(const WorkStealDeque&) = delete;
  WorkStealDeque& operator=(const WorkStealDeque&) = delete;

  ~WorkStealDeque() {
    delete active_.load(std::memory_order_relaxed);
    if (budget_ != nullptr) budget_->release(charged());
  }

  /// Owner only. False, with `item` not queued, when the budget refuses
  /// the bigger ring a full deque needs; an uncharged push always lands.
  bool push(T item) {
    CCREF_REQUIRE(item != T{});
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = active_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(ring->capacity)) {
      ring = grow(t, b);
      if (ring == nullptr) return false;
    }
    ring->cell(b).store(item, std::memory_order_relaxed);
    // seq_cst publish: a thief's subsequent bottom_ load both sees the
    // new count and (via release/acquire) the cell contents.
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return true;
  }

  /// Owner only. T{} when empty.
  [[nodiscard]] T pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // seq_cst StoreLoad: the reservation of slot b must be visible to
    // thieves before we read top_, or owner and thief could both take
    // the last element.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // deque was empty; undo the reservation
      bottom_.store(b + 1, std::memory_order_relaxed);
      return T{};
    }
    Ring* ring = active_.load(std::memory_order_relaxed);
    T item = ring->cell(b).load(std::memory_order_relaxed);
    if (t == b) {
      // Last element: race thieves for it via top_.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_seq_cst))
        item = T{};  // a thief won
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  /// Any thread. T{} when empty or on a lost race (caller retries or
  /// moves to the next victim).
  [[nodiscard]] T steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return T{};
    readers_.fetch_add(1, std::memory_order_seq_cst);
    Ring* ring = active_.load(std::memory_order_seq_cst);
    T item = ring->cell(t).load(std::memory_order_relaxed);
    readers_.fetch_sub(1, std::memory_order_release);
    // The CAS both claims index t and validates that the cell we read
    // was not recycled: the owner only overwrites a cell after top_
    // has moved past it, which would make this CAS fail.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst))
      return T{};
    return item;
  }

  /// Owner only (or quiescent): live element count snapshot.
  [[nodiscard]] std::size_t size() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  /// Bytes of every ring held (the active one and any retired one a thief
  /// kept alive); readable from any thread.
  [[nodiscard]] std::size_t charged() const {
    return charged_.load(std::memory_order_relaxed);
  }

 private:
  struct Ring {
    explicit Ring(std::size_t cap)
        : capacity(cap), mask(cap - 1), cells(new std::atomic<T>[cap]) {}
    [[nodiscard]] static std::size_t bytes(std::size_t cap) {
      return cap * sizeof(std::atomic<T>);
    }
    std::size_t capacity;
    std::size_t mask;
    std::unique_ptr<std::atomic<T>[]> cells;
    [[nodiscard]] std::atomic<T>& cell(std::int64_t i) {
      return cells[static_cast<std::size_t>(i) & mask];
    }
  };

  // nullptr when the budget refuses the bigger ring.
  Ring* grow(std::int64_t t, std::int64_t b) {
    Ring* old = active_.load(std::memory_order_relaxed);
    const std::size_t bytes = Ring::bytes(old->capacity * 2);
    if (budget_ != nullptr && !budget_->try_reserve(bytes)) return nullptr;
    charged_.fetch_add(bytes, std::memory_order_relaxed);
    auto* fresh = new Ring(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i)
      fresh->cell(i).store(old->cell(i).load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    active_.store(fresh, std::memory_order_seq_cst);
    retired_.emplace_back(old);
    if (readers_.load(std::memory_order_seq_cst) == 0) {
      for (const auto& r : retired_) {
        if (budget_ != nullptr) budget_->release(Ring::bytes(r->capacity));
        charged_.fetch_sub(Ring::bytes(r->capacity), std::memory_order_relaxed);
      }
      retired_.clear();
    }
    return fresh;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> active_{nullptr};
  std::vector<std::unique_ptr<Ring>> retired_;  // owner-only mutation
  std::atomic<std::uint32_t> readers_{0};  // thieves reading a ring
  Budget* budget_;
  std::atomic<std::size_t> charged_{0};  // rings held, retired included
};

}  // namespace ccref

// Hash-compaction visited set (Wolper & Leroy 1993, Stern & Dill 1995):
// one 64-bit fingerprint per state instead of the full (or collapsed)
// byte vector.
//
// This is the storage tier below full/COLLAPSE storage: ~11.4 bytes per
// state at the 0.7 load factor, against ~60 raw or ~20 collapsed — but two
// distinct states whose fingerprints collide dedupe to one, so the second
// is never expanded. The damage is quantifiable: for n states and a 64-bit
// fingerprint the birthday bound
// puts the probability that ANY state was omitted at ~n(n-1)/2^65, which
// the checker reports alongside the verdict (omission_probability in
// CheckResult / --json). A verdict of "invariant violated" is always
// exact — counterexamples are re-concretized by replaying real
// transitions — only the Ok state count carries the caveat.
//
// The table is a plain open-addressing array of u64 words (0 = empty;
// fingerprint 0 folds onto 1, costing one bit of the 64). Growth is
// admitted BEFORE the insert so a refused grow never needs a probe-chain
// rollback: past a hard 90% cap with growth refused, insert reports
// Exhausted, same discipline as the lock-free table.
#pragma once

#include <cstdint>
#include <vector>

#include "support/atomic_table.hpp"
#include "support/contracts.hpp"
#include "verify/memory_budget.hpp"

namespace ccref::verify {

/// Birthday-bound estimate of the probability that hash compaction omitted
/// at least one distinct state: n(n-1)/2 pairs, each colliding with
/// probability 2^-64.
[[nodiscard]] inline double omission_bound(std::size_t states) {
  const double n = static_cast<double>(states);
  const double p = n * (n - 1) / 2.0 / 18446744073709551616.0;  // 2^64
  return p > 1.0 ? 1.0 : p;
}

class FingerprintSet {
 public:
  using Outcome = ::ccref::InsertOutcome;

  struct InsertResult {
    Outcome outcome;
    std::uint32_t index;  // insertion order; valid only when Inserted
  };

  /// Draws on a budget shared with the owning set.
  explicit FingerprintSet(MemoryBudget& budget) : budget_(&budget) {
    table_.resize(kInitialSlots, 0);
    reserved_ = table_.capacity() * sizeof(std::uint64_t);
    // Same born-exhausted-not-dishonest discipline as the other tables.
    if (!budget_->try_reserve(reserved_)) budget_->charge(reserved_);
  }

  ~FingerprintSet() { budget_->release(reserved_); }

  FingerprintSet(const FingerprintSet&) = delete;
  FingerprintSet& operator=(const FingerprintSet&) = delete;

  [[nodiscard]] InsertResult insert(std::uint64_t fp) {
    if (fp == 0) fp = 1;  // 0 marks an empty slot
    // Admit growth before touching the probe chain: a post-insert rollback
    // would need open-addressing deletion, which linear probing lacks.
    if ((size_ + 1) * 10 > table_.size() * 7) (void)grow();
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = fp & mask;
    for (;;) {
      const std::uint64_t w = table_[slot];
      if (w == 0) break;
      // Equal fingerprints dedupe whether or not the states were equal —
      // that IS the compaction bet; insertion indices of duplicates are
      // not tracked (nothing in the BFS needs them).
      if (w == fp) return {Outcome::AlreadyPresent, 0};
      slot = (slot + 1) & mask;
    }
    // Hard cap at 95% when growth is refused, applied only to genuinely
    // fresh fingerprints — duplicates above must keep answering so a
    // capped set never cuts a search short on a state it already holds.
    // Probe chains degrade badly up there, but this tier exists exactly
    // for budget-bound runs, where "slow for the last few percent" beats
    // Unfinished. (The power-of-two growth steps are coarse — at 64 MB
    // the next doubling IS the budget — so the cap decides real capacity,
    // not a pathological corner.)
    if ((size_ + 1) * 20 >= table_.size() * 19)
      return {Outcome::Exhausted, 0};
    table_[slot] = fp;
    return {Outcome::Inserted, static_cast<std::uint32_t>(size_++)};
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] std::size_t memory_used() const { return reserved_; }

 private:
  static constexpr std::size_t kInitialSlots = 1024;

  [[nodiscard]] bool grow() {
    const std::size_t new_slots = table_.size() * 2;
    if (!budget_->try_reserve(new_slots * sizeof(std::uint64_t))) return false;
    std::vector<std::uint64_t> fresh(new_slots, 0);
    const std::size_t mask = new_slots - 1;
    for (std::uint64_t fp : table_) {
      if (fp == 0) continue;
      std::size_t slot = fp & mask;
      while (fresh[slot] != 0) slot = (slot + 1) & mask;
      fresh[slot] = fp;
    }
    const std::size_t old_bytes = table_.capacity() * sizeof(std::uint64_t);
    table_ = std::move(fresh);
    budget_->release(old_bytes);
    reserved_ += new_slots * sizeof(std::uint64_t) - old_bytes;
    return true;
  }

  MemoryBudget* budget_;
  std::size_t reserved_ = 0;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> table_;
};

}  // namespace ccref::verify

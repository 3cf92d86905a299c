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
// Hash compaction: the visited set holds only fingerprints, so each worker
// appends every fresh state, with its packed Ref, to its own FrontierLog
// (frontier_log.hpp) and pushes the entry's address as its handle.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "support/work_steal_deque.hpp"
#include "verify/frontier_log.hpp"
#include "verify/sharded_state_set.hpp"

namespace ccref::verify {

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


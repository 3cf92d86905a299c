// Bitstate hashing (Holzmann's "supertrace") — SPIN's 1997-era answer to
// the `Unfinished` rows of Table 3.
//
// When the exact visited set exhausts its memory budget, exchange
// exactness for coverage: states are recorded only as two independent hash
// bits in a fixed-size bit array. Collisions silently prune exploration
// (never report false errors for *reachable* states; may miss states), so
// results are lower bounds on the reachable count — exactly how SPIN's -DBITSTATE
// mode was used on the machines the paper ran on.
//
// Because bitstate storage cannot reproduce a state from its bits, the
// exploration is depth-first with an explicit stack of decoded states (the
// stack depth, not the state count, bounds the non-bit memory).
#pragma once

#include <chrono>
#include <vector>

#include "support/hash.hpp"
#include "verify/checker.hpp"

namespace ccref::verify {

class BitstateSet {
 public:
  /// `memory` bytes of bit array (rounded down to a power of two bits).
  explicit BitstateSet(std::size_t memory_bytes) {
    std::size_t bits = 8;
    while (bits * 2 <= memory_bytes * 8) bits *= 2;
    bits_.assign(bits / 64, 0);
    mask_ = bits - 1;
  }

  /// True if newly inserted; false if (probably) seen before.
  bool insert(std::span<const std::byte> state) {
    std::uint64_t h1 = hash_bytes(state, 0x9e3779b97f4a7c15ull);
    std::uint64_t h2 = hash_bytes(state, 0xc2b2ae3d27d4eb4full);
    bool fresh = !test_and_set(h1 & mask_);
    fresh |= !test_and_set(h2 & mask_);
    return fresh;
  }

  [[nodiscard]] std::size_t memory_used() const {
    return bits_.size() * sizeof(std::uint64_t);
  }

 private:
  bool test_and_set(std::uint64_t bit) {
    std::uint64_t& word = bits_[bit >> 6];
    std::uint64_t m = 1ull << (bit & 63);
    bool was = word & m;
    word |= m;
    return was;
  }

  std::vector<std::uint64_t> bits_;
  std::uint64_t mask_ = 0;
};

struct BitstateResult {
  std::size_t states = 0;       // visited (lower bound on reachable)
  std::size_t transitions = 0;
  std::size_t max_depth = 0;
  std::size_t memory_bytes = 0;
  double seconds = 0;
  bool depth_bounded = false;   // hit the depth limit somewhere
  bool state_bounded = false;   // hit the max_states budget
  std::string violation;        // first invariant violation, if any
};

/// Depth-first exploration under bitstate hashing. `invariant` (optional)
/// is checked on every visited state; a violation stops the search (any
/// violation found is real — only omissions are possible). Symmetry
/// reduction composes with the bit array exactly as with the exact sets:
/// states are canonicalized before hashing, so the two bits per state are
/// spent on orbits, not concrete states.
template <class Sys>
[[nodiscard]] BitstateResult explore_bitstate(
    const Sys& sys, std::size_t bit_memory = 8u << 20,
    std::size_t max_depth = 100000,
    const std::function<std::string(const typename Sys::State&)>& invariant =
        {},
    std::size_t max_states = 0 /* 0 = unbounded */,
    SymmetryMode symmetry = SymmetryMode::Off) {
  auto t0 = std::chrono::steady_clock::now();
  BitstateResult result;
  BitstateSet seen(bit_memory);
  result.memory_bytes = seen.memory_used();

  // Frames hold byte-encoded successors, not materialized states, so the
  // DFS stack costs tens of bytes per pending edge.
  struct Frame {
    std::vector<std::vector<std::byte>> succs;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;

  auto push = [&](std::span<const std::byte> bytes) {
    if (!seen.insert(bytes)) return false;
    ++result.states;
    ByteSource src(bytes);
    auto state = sys.decode(src);
    if (invariant) {
      std::string msg = invariant(state);
      if (!msg.empty()) {
        result.violation = std::move(msg);
        return false;
      }
    }
    if (stack.size() >= max_depth) {
      result.depth_bounded = true;
      return false;
    }
    Frame frame;
    for (auto& [succ, label] :
         detail::successors_of(sys, state, sem::LabelMode::Quiet)) {
      detail::maybe_canonicalize(sys, succ, symmetry);
      ByteSink sink;
      sys.encode(succ, sink);
      frame.succs.push_back(sink.take());
    }
    stack.push_back(std::move(frame));
    return true;
  };

  {
    ByteSink sink;
    auto root = sys.initial();
    detail::maybe_canonicalize(sys, root, symmetry);
    sys.encode(root, sink);
    auto root_bytes = sink.take();
    (void)push(root_bytes);
  }
  while (!stack.empty() && result.violation.empty()) {
    if (max_states && result.states >= max_states) {
      result.state_bounded = true;
      break;
    }
    result.max_depth = std::max(result.max_depth, stack.size());
    Frame& top = stack.back();
    if (top.next >= top.succs.size()) {
      stack.pop_back();
      continue;
    }
    ++result.transitions;
    // `top` may be invalidated by the push; index via the copy below.
    std::vector<std::byte> next_bytes = std::move(top.succs[top.next++]);
    (void)push(next_bytes);
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace ccref::verify

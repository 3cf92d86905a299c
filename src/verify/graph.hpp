// The state graph progress.hpp and liveness.hpp analyse, and the one SCC
// routine both run over it. Both expand states in index order, so a state's
// edges arrive together and the forward CSR grows at its end, with no edge
// log and no sort. Every array, Tarjan's scratch included, is a ChunkedIndex
// on the search's MemoryBudget: the budget holds what the graph holds.
#pragma once

#include <cstdint>

#include "support/atomic_table.hpp"
#include "verify/memory_budget.hpp"

namespace ccref::verify::detail {

/// Forward CSR built in state order: state v's edges are the ones added
/// between open(v) and open(v + 1). Opening one past the last state
/// closes the graph. open() and add() are false when the budget refuses.
class EdgeStore {
 public:
  explicit EdgeStore(MemoryBudget& budget) : start_(budget), to_(budget) {}

  [[nodiscard]] bool open(std::uint32_t v) { return start_.put(v, edges_); }
  [[nodiscard]] bool add(std::uint32_t to) {
    if (!to_.put(edges_, to)) return false;
    ++edges_;
    return true;
  }
  /// Forget the edges added since open(v), v being the open state.
  void drop(std::uint32_t v) { edges_ = start_[v]; }

  [[nodiscard]] std::uint32_t begin(std::uint32_t v) const {
    return start_[v];
  }
  [[nodiscard]] std::uint32_t end(std::uint32_t v) const {
    return start_[v + 1];
  }
  [[nodiscard]] std::uint32_t to(std::uint32_t e) const { return to_[e]; }
  /// Edges added so far: the number the next add() gives its edge.
  [[nodiscard]] std::uint32_t edges() const { return edges_; }

 private:
  ChunkedIndex<MemoryBudget> start_, to_;
  std::uint32_t edges_ = 0;
};

/// Iterative Tarjan in Pearce's one-word form. rindex[v] is 0 before v is
/// visited, v's lowlink while v is on the node stack, and kDone once its
/// SCC is emitted. A node's 1-based stack position is its DFS index, so v
/// roots an SCC iff stack[rindex[v] - 1] == v, and the SCC is the stack
/// span from there to the top. SCCs come out sinks first, in the order
/// of the classic algorithm, each with its members in classic pop order.
class Tarjan {
 public:
  static constexpr std::uint32_t kDone = 0xffffffffu;

  /// One SCC: the node stack above `lo`, valid during the emit call.
  struct Scc {
    const Tarjan* t;
    std::uint32_t lo, hi;
    [[nodiscard]] std::uint32_t size() const { return hi - lo; }
    /// Member i, top of the stack first (the SCC's root comes last).
    [[nodiscard]] std::uint32_t operator[](std::uint32_t i) const {
      return t->stack_[hi - 1 - i];
    }
    /// Members' lowlinks exceed lo; other nodes on the stack have smaller.
    [[nodiscard]] bool contains(std::uint32_t w) const {
      const std::uint32_t r = t->rindex_[w];
      return r > lo && r != kDone;
    }
  };

  Tarjan(const EdgeStore& g, MemoryBudget& budget)
      : g_(g), rindex_(budget), stack_(budget), frames_(budget) {}

  /// Mark states 0..n-1 unvisited; false when the budget refuses.
  [[nodiscard]] bool start(std::uint32_t n) {
    for (std::uint32_t v = 0; v < n; ++v)
      if (!rindex_.put(v, 0)) return false;
    return true;
  }

  /// Visit what `root` reaches that no run has visited, calling
  /// emit(const Scc&) -> bool per SCC; a DFS from a split passes `base`.
  /// False when the budget refuses a stack chunk or emit returns false.
  template <class Emit>
  [[nodiscard]] bool run(std::uint32_t root, Emit&& emit,
                         std::uint32_t base = 1) {
    if (rindex_[root] != 0) return true;
    const std::uint32_t floor = depth_;
    if (!push(root)) return false;
    while (depth_ > floor) {
      const std::uint64_t frame = frames_[depth_ - 1];
      const auto v = static_cast<std::uint32_t>(frame >> 32);
      const auto e = static_cast<std::uint32_t>(frame);
      if (e < g_.end(v)) {
        frames_.set(depth_ - 1, frame + 1);
        const std::uint32_t w = g_.to(e), r = rindex_[w];
        if (r == 0) {
          if (!push(w)) return false;
        } else if (r >= base && r < rindex_[v]) {
          rindex_.set(v, r);
        }
        continue;
      }
      --depth_;
      const std::uint32_t low = rindex_[v];
      if (stack_[low - 1] == v) {
        if (!emit(Scc{this, low - 1, size_})) return false;
        for (std::uint32_t i = low - 1; i < size_; ++i)
          rindex_.set(stack_[i], kDone);
        size_ = low - 1;
      } else if (const auto p = static_cast<std::uint32_t>(
                     frames_[depth_ - 1] >> 32);
                 low < rindex_[p]) {
        rindex_.set(p, low);
      }
    }
    return true;
  }

  /// From inside emit: decompose the members of `scc` that keep(v) admits,
  /// as if the others were deleted, trying roots in member order. The DFS
  /// ignores the lowlinks of the nodes below on the stack: all outside.
  template <class Keep, class Emit>
  [[nodiscard]] bool split(const Scc& scc, Keep&& keep, Emit&& emit) {
    for (std::uint32_t i = 0; i < scc.size(); ++i)
      rindex_.set(scc[i], keep(scc[i]) ? 0 : kDone);
    for (std::uint32_t i = 0; i < scc.size(); ++i)
      if (!run(scc[i], emit, size_ + 1)) return false;
    return true;
  }

 private:
  bool push(std::uint32_t w) {
    if (!stack_.put(size_, w) ||
        !frames_.put(depth_, std::uint64_t{w} << 32 | g_.begin(w)))
      return false;
    rindex_.set(w, ++size_);
    ++depth_;
    return true;
  }

  const EdgeStore& g_;
  ChunkedIndex<MemoryBudget> rindex_, stack_;
  ChunkedIndex<MemoryBudget, std::uint64_t> frames_;  // node << 32 | edge
  std::uint32_t size_ = 0, depth_ = 0;
};

}  // namespace ccref::verify::detail

// Forward-progress (weak fairness) analysis — the paper's §2.5 guarantee.
//
// The refinement promises that *some* remote always makes progress: from
// every reachable state, a rendezvous-completing transition must remain
// reachable. A state from which no completion is ever reachable is *doomed*
// (a livelock: the system can still move — nacks and retries forever — but
// never completes another rendezvous). §3.2 motivates the progress buffer
// with exactly this failure: "if the buffer is full and none of the requests
// in the buffer can enable a guard in the home node ... the home node can no
// longer make progress".
//
// check_progress() records the graph that the safety checker's
// detail::bfs_reach explores (so symmetry and the memory cap behave alike)
// in graph.hpp's edge store, on the same budget. One Tarjan pass then
// settles each SCC as it is emitted, sinks first: it is live iff a member
// completes a rendezvous or an edge leaves it for a live state. Deadlock
// states (no successors at all) are doomed.
//
// "Doomed state exists" is the CTL flavour of non-progress; the LTL flavour
// (`G F completion` under weak fairness, ltl/check.hpp) agrees with it on
// these protocols — tests/test_liveness.cpp pins that agreement down.
#pragma once

#include "verify/checker.hpp"
#include "verify/graph.hpp"

namespace ccref::verify {

struct ProgressOptions {
  std::size_t memory_limit = 64u << 20;  // the paper's 64 MB cap
  /// Orbit quotient (symmetry.hpp). Sound for this analysis: "a completion
  /// stays reachable" is invariant under remote permutation, so a doomed
  /// representative implies a doomed orbit and vice versa.
  SymmetryMode symmetry = SymmetryMode::Off;
  /// COLLAPSE component interning (collapse.hpp); verdict-neutral.
  CompressionMode compress = CompressionMode::Off;
};

struct ProgressResult {
  Status status = Status::Ok;  // Ok, or Unfinished on memory exhaustion
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t completing_edges = 0;
  std::size_t doomed = 0;        // states that can never complete again
  std::string doomed_example;    // describe() of one doomed state
  std::size_t memory_bytes = 0;  // visited set + graph + SCC scratch
  double seconds = 0;
};

template <class Sys>
[[nodiscard]] ProgressResult check_progress(const Sys& sys,
                                            const ProgressOptions& opts = {}) {
  auto t0 = std::chrono::steady_clock::now();
  ProgressResult result;
  CollapsedStateSet seen(opts.memory_limit, {.compress = opts.compress});
  MemoryBudget& budget = seen.budget();
  // A state with a completing edge is live whatever it reaches, so the
  // graph keeps no edges of it.
  detail::EdgeStore graph(budget);
  constexpr std::uint8_t kCompletes = 1, kLive = 2;
  ChunkedIndex<MemoryBudget, std::uint8_t> flags(budget);

  auto finish = [&](Status status) {
    result.status = status;
    result.states = seen.size();
    result.memory_bytes = budget.used();
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
  };

  auto outcome = detail::bfs_reach(
      sys, seen, opts.symmetry, sem::LabelMode::Quiet,
      [&](std::uint32_t index, const auto&) {
        return graph.open(index) && flags.put(index, 0);
      },
      [&](std::uint32_t, const auto&, const auto&, const sem::Label&) {
        ++result.transitions;
        return true;
      },
      [&](std::uint32_t from, const CollapsedStateSet::InsertResult& ins,
          const auto&, const sem::Label& label) {
        if (label.completes_rendezvous) {
          ++result.completing_edges;
          if (flags[from] == 0) graph.drop(from);
          flags.set(from, kCompletes);
        }
        return flags[from] == kCompletes || graph.add(ins.index);
      },
      [](std::uint32_t, const auto&) { return true; });
  switch (outcome) {
    case detail::BfsOutcome::Exhausted:
    case detail::BfsOutcome::Stopped:  // the graph's budget refused
      return finish(Status::Unfinished);
    case detail::BfsOutcome::Complete: break;
  }

  // Tarjan emits SCCs sinks first, so an edge leaving an SCC lands where
  // the verdict is already known: the SCC is live iff a member completes
  // or such an edge reaches a live state.
  const auto n = static_cast<std::uint32_t>(seen.size());
  detail::Tarjan tarjan(graph, budget);
  if (!graph.open(n) || !tarjan.start(n)) return finish(Status::Unfinished);
  auto judge = [&](const detail::Tarjan::Scc& scc) {
    bool live = false;
    for (std::uint32_t i = 0; i < scc.size() && !live; ++i) {
      const std::uint32_t m = scc[i];
      live = flags[m] == kCompletes;
      for (std::uint32_t e = graph.begin(m); e < graph.end(m) && !live; ++e)
        live = (flags[graph.to(e)] & kLive) != 0;
    }
    if (live)
      for (std::uint32_t i = 0; i < scc.size(); ++i)
        flags.set(scc[i], flags[scc[i]] | kLive);
    return true;
  };
  for (std::uint32_t v = 0; v < n; ++v)
    if (!tarjan.run(v, judge)) return finish(Status::Unfinished);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (flags[s] & kLive) continue;
    ++result.doomed;
    if (result.doomed_example.empty()) {
      ByteSource src(seen.at(s));
      result.doomed_example = sys.describe(sys.decode(src));
    }
  }
  return finish(Status::Ok);
}

}  // namespace ccref::verify

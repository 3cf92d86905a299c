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
// check_progress() builds the reachable graph (via the same detail::bfs_reach
// skeleton the safety checker uses, so symmetry reduction and the memory cap
// behave identically), seeds a backward search at every state with an
// outgoing completing edge, and reports the states the search never reaches.
// Deadlock states (no successors at all) are also doomed.
//
// "Doomed state exists" is the CTL flavour of non-progress; the LTL flavour
// (`G F completion` under weak fairness, ltl/check.hpp) agrees with it on
// these protocols — tests/test_liveness.cpp pins that agreement down.
#pragma once

#include "verify/checker.hpp"

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
  std::size_t memory_bytes = 0;  // visited set + reverse graph
  double seconds = 0;
};

template <class Sys>
[[nodiscard]] ProgressResult check_progress(const Sys& sys,
                                            const ProgressOptions& opts = {}) {
  auto t0 = std::chrono::steady_clock::now();
  ProgressResult result;
  CollapsedStateSet seen(opts.memory_limit, {.compress = opts.compress});
  // Reverse adjacency + per-state "has a completing out-edge" seed flag.
  std::vector<std::vector<std::uint32_t>> rev;
  std::vector<std::uint8_t> seed;

  // The reverse graph is charged against the same budget as the visited set
  // so the cap bounds the whole analysis, not just state storage. Per-edge
  // capacity overshoot inside rev's inner vectors is not observable cheaply;
  // this is the same element-count approximation liveness.hpp uses.
  std::size_t aux_bytes = 0;
  auto charge_aux = [&](std::size_t bytes) {
    aux_bytes += bytes;
    return seen.budget().try_reserve(bytes);
  };
  constexpr std::size_t kPerState =
      sizeof(std::vector<std::uint32_t>) + sizeof(std::uint8_t);
  constexpr std::size_t kPerEdge = sizeof(std::uint32_t);

  auto finish = [&](Status status) {
    result.status = status;
    result.states = seen.size();
    result.memory_bytes = seen.memory_used() + aux_bytes;
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
  };

  auto outcome = detail::bfs_reach(
      sys, seen, opts.symmetry, sem::LabelMode::Quiet,
      [&](std::uint32_t index, const auto&) {
        if (index == 0) {  // bfs_reach just inserted the root
          rev.emplace_back();
          seed.push_back(0);
          return charge_aux(kPerState);
        }
        return true;
      },
      [&](std::uint32_t, const auto&, const auto&, const sem::Label&) {
        ++result.transitions;
        return true;
      },
      [&](std::uint32_t from, const CollapsedStateSet::InsertResult& ins,
          const auto&, const sem::Label& label) {
        if (ins.outcome == InsertOutcome::Inserted) {
          rev.emplace_back();
          seed.push_back(0);
          if (!charge_aux(kPerState)) return false;
        }
        rev[ins.index].push_back(from);
        if (!charge_aux(kPerEdge)) return false;
        if (label.completes_rendezvous) {
          ++result.completing_edges;
          seed[from] = 1;
        }
        return true;
      },
      [](std::uint32_t, const auto&) { return true; });
  switch (outcome) {
    case detail::BfsOutcome::Exhausted:
    case detail::BfsOutcome::Stopped:  // reverse-graph accounting refused
      return finish(Status::Unfinished);
    case detail::BfsOutcome::Complete: break;
  }

  // Backward reachability from completing states.
  if (!charge_aux(seen.size() * (sizeof(std::uint8_t) + sizeof(std::uint32_t))))
    return finish(Status::Unfinished);
  std::vector<std::uint8_t> good = seed;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t s = 0; s < good.size(); ++s)
    if (good[s]) stack.push_back(s);
  while (!stack.empty()) {
    std::uint32_t at = stack.back();
    stack.pop_back();
    for (std::uint32_t pred : rev[at])
      if (!good[pred]) {
        good[pred] = 1;
        stack.push_back(pred);
      }
  }
  for (std::uint32_t s = 0; s < good.size(); ++s) {
    if (good[s]) continue;
    ++result.doomed;
    if (result.doomed_example.empty()) {
      ByteSource src(seen.at(s));
      result.doomed_example = sys.describe(sys.decode(src));
    }
  }
  return finish(Status::Ok);
}

}  // namespace ccref::verify

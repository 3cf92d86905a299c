// Fair accepting-lasso search: LTL model checking over the Büchi product
// (the liveness side of the paper's claims — §2.5 weak-fairness progress,
// §6 per-node starvation — that the reachability checker cannot express).
//
// The engine explores the product of a system (rendezvous or asynchronous
// semantics, or any System type checker.hpp accepts) with a generalized
// Büchi automaton for the *negated* property (ltl/buchi.hpp), then runs an
// SCC-based emptiness check (graph.hpp's Tarjan): the property fails iff some
// reachable SCC supports a cycle that
//   - visits every automaton acceptance set (the ¬φ obligations), and
//   - is *fair* under the requested FairnessMode.
//
// Fairness is folded in as acceptance conditions on product edges/states
// rather than extra automaton states:
//   Weak    per-process weak fairness (justice): a process continuously
//           enabled must eventually act. Edge marks: "process p acted" or
//           "p was disabled at the source". A cycle is weakly fair iff every
//           process has a marked edge on it — an SCC-local coverage check.
//   Strong  Weak plus per-remote *service* fairness (compassion, Streett):
//           if a grant to remote i is enabled infinitely often, remote i is
//           granted infinitely often. §6's shared-pool argument is exactly
//           this assumption: with an n-slot buffer the home cannot ignore a
//           buffered request forever. Checked by the classic Streett
//           recursion: delete the E_i-states of violated pairs, re-SCC.
//
// Counterexamples are lassos: a stem (BFS-shortest to the cycle entry) plus
// a cycle routed through every required mark. Both are re-concretized with
// the same orbit re-search append_step_label machinery the safety checker
// uses, so they compose with --symmetry canonical: each reported step is a
// real transition of the raw (uncanonicalized) relation; under symmetry the
// cycle closes up to a remote permutation of the entry state (the concrete
// trace re-enters the entry's orbit).
//
// Memory: product states, their BFS parents, the product graph (graph.hpp,
// shared with progress.hpp), its fairness data and Tarjan's scratch all
// draw on one MemoryBudget, so the paper's 64 MB cap yields
// Status::Unfinished exactly like Table 3.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ltl/buchi.hpp"
#include "support/strings.hpp"
#include "verify/checker.hpp"
#include "verify/graph.hpp"

namespace ccref::verify {

enum class FairnessMode : std::uint8_t {
  None,    // any accepting cycle counts (no fairness assumption)
  Weak,    // per-process weak fairness (the paper's §2.5 assumption)
  Strong,  // weak + per-remote service fairness (the §6 buffer argument)
};

[[nodiscard]] constexpr const char* to_string(FairnessMode m) {
  switch (m) {
    case FairnessMode::None: return "none";
    case FairnessMode::Weak: return "weak";
    case FairnessMode::Strong: return "strong";
  }
  return "?";
}

/// Parse a `--fairness` flag value; nullopt on anything unknown.
[[nodiscard]] inline std::optional<FairnessMode> parse_fairness(
    std::string_view text) {
  if (text == "none") return FairnessMode::None;
  if (text == "weak") return FairnessMode::Weak;
  if (text == "strong") return FairnessMode::Strong;
  return std::nullopt;
}

struct LivenessOptions {
  std::size_t memory_limit = 64u << 20;  // the paper's 64 MB
  SymmetryMode symmetry = SymmetryMode::Off;
  FairnessMode fairness = FairnessMode::Weak;
  /// COLLAPSE component interning over product states (collapse.hpp): the
  /// automaton prefix becomes its own component, the system components keep
  /// their classes. Verdict-neutral.
  CompressionMode compress = CompressionMode::Off;
  bool want_trace = true;
};

/// Same engine-metadata shape as CheckResult/ProgressResult (status, states,
/// transitions, memory, seconds) so bench rows stay uniform.
struct LivenessResult {
  Status status = Status::Ok;   // Ok | Unfinished | LivenessViolated
  std::size_t states = 0;       // product states stored
  std::size_t transitions = 0;  // product edges recorded
  std::size_t memory_bytes = 0;
  double seconds = 0;
  std::string violation;           // lasso summary when LivenessViolated
  std::string note;                // engine notes (e.g. symmetry downgrade)
  std::vector<std::string> stem;   // labels: initial -> cycle entry
  std::vector<std::string> cycle;  // labels around the fair accepting cycle
};

/// Search the system x automaton product for a fair accepting lasso. `aut`
/// recognizes the *negated* property; `atoms` are the bound AP predicates
/// (ltl/ap.hpp), indexed as in the automaton's literal masks. State
/// predicates are evaluated on each step's target state, event predicates on
/// its label; the initial state itself carries no letter.
template <class Sys>
[[nodiscard]] LivenessResult find_accepting_lasso(
    const Sys& sys, const ltl::Buchi& aut,
    const std::vector<std::function<bool(const typename Sys::State&,
                                         const sem::Label&)>>& atoms,
    const LivenessOptions& opts = {}) {
  auto t0 = std::chrono::steady_clock::now();
  LivenessResult result;
  CCREF_REQUIRE(atoms.size() == aut.num_atoms);

  // Process universe for the fairness marks. A system with no remotes
  // (a test harness) runs without fairness constraints.
  const int n_remotes = sys.num_remotes();
  CCREF_REQUIRE(n_remotes <= 62);
  const bool fairness_on =
      opts.fairness != FairnessMode::None && n_remotes > 0;

  // Fairness marks name processes in the coordinates of each edge's *source
  // representative*. Canonicalization permutes remotes between steps, so on
  // a quotient cycle those frames disagree and a per-bit coverage check is
  // meaningless both ways (a cycle fair in mixed frames may treat no
  // concrete process fairly, and vice versa). Sound composition needs the
  // permutation-annotated quotient (Emerson & Sistla 1997), which this
  // engine does not build — fall back to the full product and say so.
  // Fairness-free emptiness is frame-invariant (acceptance lives on the
  // automaton component; atoms reaching this engine are orbit-invariant),
  // so SymmetryMode::Canonical stays available for FairnessMode::None.
  SymmetryMode symmetry = opts.symmetry;
  if (fairness_on && symmetry == SymmetryMode::Canonical) {
    symmetry = SymmetryMode::Off;
    result.note =
        "symmetry downgraded to off: fairness marks are not invariant "
        "under the orbit quotient (use --fairness none to keep it)";
  }
  const bool strong = opts.fairness == FairnessMode::Strong && n_remotes > 0;
  const int num_procs = fairness_on ? n_remotes + 1 : 0;
  const std::uint64_t procs_mask =
      num_procs ? (1ull << num_procs) - 1 : 0;
  auto proc_bit = [&](int actor) {  // home 0, remote i at i + 1, or -1
    return !fairness_on || actor < -1 || actor >= n_remotes ? -1 : actor + 1;
  };

  // The set keeps each state's first-discovery BFS parent: the lasso's
  // stem walks them. Beside the graph, a state keeps its automaton state,
  // the processes disabled at it and its Streett E_i bits; an edge keeps
  // its actor and granted remote, each + 1, in a u16. An edge's weak-
  // fairness mark is derived on read: its actor or anyone disabled.
  CollapsedStateSet seen(opts.memory_limit, {.compress = opts.compress},
                         /*track_parents=*/true);
  MemoryBudget& budget = seen.budget();
  detail::EdgeStore graph(budget);
  ChunkedIndex<MemoryBudget> aut_of(budget);
  ChunkedIndex<MemoryBudget, std::uint64_t> disabled(budget),
      grant_enabled(budget);
  ChunkedIndex<MemoryBudget, std::uint16_t> edge_procs(budget);
  auto fair_of = [&](std::uint32_t from, std::uint32_t e) -> std::uint64_t {
    if (!fairness_on) return 0;
    const unsigned p = edge_procs[e] & 0xff;
    return disabled[from] | (p ? 1ull << (p - 1) : 0);
  };
  auto granted_of = [&](std::uint32_t e) {
    return strong ? (edge_procs[e] >> 8) - 1 : -1;
  };

  auto finish = [&](Status status) {
    result.status = status;
    result.states = seen.size();
    result.memory_bytes = budget.used();
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
  };

  auto valuation = [&](const typename Sys::State& target,
                       const sem::Label& label) {
    std::uint64_t v = 0;
    for (std::size_t a = 0; a < atoms.size(); ++a)
      if (atoms[a](target, label)) v |= 1ull << a;
    return v;
  };

  // The automaton component gets dictionary class 4 (the system encoders use
  // 0-3); the system components carry their own classes across via the
  // mark-shifting raw() overload.
  constexpr std::uint8_t kCompAutomaton = 4;
  ComponentSink sink;
  {
    auto root = sys.initial();
    detail::maybe_canonicalize(sys, root, symmetry);
    sink.u32(0);  // automaton initial pseudo-state
    sink.boundary(kCompAutomaton);
    sys.encode(root, sink);
    auto ins = seen.insert(sink.bytes(), sink.marks());
    if (ins.outcome == InsertOutcome::Exhausted || !aut_of.put(0, 0))
      return finish(Status::Unfinished);
  }

  // ---- product BFS -------------------------------------------------------
  // Each state is decoded into one reused target and its system successors
  // stream through one scratch state (detail::for_each_successor), their
  // encodings spliced from the parent's system bytes, as in bfs_reach.
  ComponentSink enc;  // reused per-system-edge encoding
  auto state = sys.initial();
  auto scratch = state;
  sem::Label label;
  // The stored state's system bytes (the automaton prefix cut off) and
  // component marks. Copied out: insert() below can reallocate the pool,
  // and under Collapse the next at() overwrites the span.
  std::vector<std::byte> parent_enc;
  std::vector<ComponentMark> parent_marks;
  for (std::uint32_t cursor = 0; cursor < seen.size(); ++cursor) {
    if (!graph.open(cursor)) return finish(Status::Unfinished);
    const std::uint32_t q = aut_of[cursor];
    const auto at = seen.at(cursor).subspan(4);
    parent_enc.assign(at.begin(), at.end());
    ByteSource src(parent_enc);
    sys.decode_into(src, state, &parent_marks);

    auto push_product = [&](std::uint64_t v,
                            std::span<const std::byte> system_enc,
                            std::span<const ComponentMark> system_marks,
                            std::uint16_t procs) {
      for (std::uint32_t q2 : aut.succ[q]) {
        if (!aut.admits(q2, v)) continue;
        sink.clear();
        sink.u32(q2);
        sink.boundary(kCompAutomaton);
        sink.raw(system_enc, system_marks);
        auto ins = seen.insert(sink.bytes(), sink.marks(), cursor);
        if (ins.outcome == InsertOutcome::Exhausted) return false;
        if ((ins.outcome == InsertOutcome::Inserted &&
             !aut_of.put(ins.index, q2)) ||
            (fairness_on && !edge_procs.put(graph.edges(), procs)) ||
            !graph.add(ins.index))
          return false;
        ++result.transitions;
      }
      return true;
    };

    std::size_t system_edges = 0;
    std::uint64_t enabled = 0, genabled = 0;
    auto step = [&](auto& succ, sem::Label& l, ComponentSet& touched) {
      ++system_edges;
      const int p = proc_bit(l.actor);
      if (p >= 0) enabled |= 1ull << p;
      const bool grant = strong && l.completes_rendezvous &&
                         l.granted_to >= 0 && l.granted_to < n_remotes;
      if (grant) genabled |= 1ull << l.granted_to;
      // Valuation on the concrete successor (symmetric atoms are orbit-
      // invariant; asymmetric atoms force symmetry off — check.hpp).
      const std::uint64_t v = valuation(succ, l);
      detail::encode_successor(sys, succ, touched, symmetry, parent_enc,
                               parent_marks, enc);
      const int granted = grant ? l.granted_to + 1 : 0;
      return push_product(v, enc.bytes(), enc.marks(),
                          static_cast<std::uint16_t>((p + 1) | (granted << 8)));
    };
    if (!detail::for_each_successor(sys, state, scratch,
                                    sem::LabelMode::Quiet, label, step))
      return finish(Status::Unfinished);
    // Deadlock: stutter-extend with an invisible self-step so the LTL
    // semantics stays over infinite words. Nothing is enabled, so every
    // process is disabled at the source and the step carries every
    // weak-fairness mark.
    if (system_edges == 0 &&
        !push_product(valuation(state, sem::Label{}), parent_enc,
                      parent_marks, 0))
      return finish(Status::Unfinished);
    if ((fairness_on && !disabled.put(cursor, procs_mask & ~enabled)) ||
        (strong && !grant_enabled.put(cursor, genabled)))
      return finish(Status::Unfinished);
  }
  const auto n_states = static_cast<std::uint32_t>(seen.size());
  if (!graph.open(n_states)) return finish(Status::Unfinished);

  // ---- SCC-based emptiness + fairness ------------------------------------
  // Each SCC is judged as Tarjan emits it, sinks first, and the last one
  // that qualifies is kept: the first in topological order from the root,
  // the one a search from the root meets first. The Streett recursion
  // splits an SCC where it is emitted, so its sub-SCCs are judged in turn.
  const std::uint32_t all_acc = aut.all_acc_mask();
  detail::Tarjan tarjan(graph, budget);
  if (!tarjan.start(n_states)) return finish(Status::Unfinished);
  ChunkedIndex<MemoryBudget> found(budget);  // the kept SCC, in member order
  std::uint32_t found_size = 0;
  std::function<bool(const detail::Tarjan::Scc&)> judge =
      [&](const detail::Tarjan::Scc& scc) {
    std::uint32_t acc_u = 0;
    std::uint64_t fair_u = 0, grant_t = 0, grant_e = 0;
    bool internal = false;
    for (std::uint32_t i = 0; i < scc.size(); ++i) {
      const std::uint32_t m = scc[i];
      acc_u |= aut.acc[aut_of[m]];
      if (strong) grant_e |= grant_enabled[m];
      for (std::uint32_t e = graph.begin(m); e < graph.end(m); ++e) {
        if (!scc.contains(graph.to(e))) continue;
        internal = true;
        fair_u |= fair_of(m, e);
        if (granted_of(e) >= 0) grant_t |= 1ull << granted_of(e);
      }
    }
    if (!internal) return true;                     // trivial SCC: no cycle
    if ((acc_u & all_acc) != all_acc) return true;  // misses a ¬φ obligation
    if ((fair_u & procs_mask) != procs_mask) return true;  // not weakly fair
    if (const std::uint64_t bad = grant_e & ~grant_t) {
      // Streett recursion: a fair cycle must avoid every state where a
      // never-taken grant is enabled (else E_i holds infinitely often
      // without T_i). Delete those states and re-decompose.
      return tarjan.split(
          scc, [&](std::uint32_t m) { return !(grant_enabled[m] & bad); },
          judge);
    }
    for (std::uint32_t i = 0; i < scc.size(); ++i)
      if (!found.put(i, scc[i])) return false;
    found_size = scc.size();
    return true;
  };
  for (std::uint32_t v = 0; v < n_states; ++v)
    if (!tarjan.run(v, judge)) return finish(Status::Unfinished);
  if (found_size == 0) return finish(Status::Ok);

  // ---- lasso construction ------------------------------------------------
  // Like every trace rebuild, the routing below runs on uncharged scratch.
  std::vector<std::uint32_t> members(found_size);
  for (std::uint32_t i = 0; i < found_size; ++i) members[i] = found[i];
  std::vector<std::uint32_t> sorted = members;
  std::sort(sorted.begin(), sorted.end());
  auto in_found = [&](std::uint32_t v) {
    return std::binary_search(sorted.begin(), sorted.end(), v);
  };
  // Cycle entry: the member closest to the root (shortest stem).
  const std::uint32_t entry = sorted.front();

  auto bfs_to = [&](std::uint32_t from, std::uint32_t to,
                    std::vector<std::uint32_t>& path_out) {
    // BFS restricted to the members; appends the nodes after `from` up
    // to and including `to` (none when from == to).
    std::unordered_map<std::uint32_t, std::uint32_t> came{{from, from}};
    std::vector<std::uint32_t> queue{from};
    for (std::size_t head = 0; head < queue.size() && !came.count(to); ++head)
      for (std::uint32_t e = graph.begin(queue[head]);
           e < graph.end(queue[head]); ++e)
        if (const std::uint32_t w = graph.to(e);
            in_found(w) && came.emplace(w, queue[head]).second)
          queue.push_back(w);
    CCREF_ASSERT_MSG(came.count(to), "SCC member unreachable inside its SCC");
    const std::size_t at = path_out.size();
    for (std::uint32_t v = to; v != from; v = came[v]) path_out.push_back(v);
    std::reverse(path_out.begin() + static_cast<std::ptrdiff_t>(at),
                 path_out.end());
  };

  // Route a closed walk from the entry, by BFS inside the SCC, through one
  // member per automaton acceptance set, then one edge per weak-fairness
  // constraint and one granting edge per active Streett pair, and back.
  std::vector<std::uint32_t> cycle_nodes{entry};
  for (std::uint32_t k = 0; k < aut.num_acc; ++k)
    for (std::uint32_t m : members)
      if (aut.acc[aut_of[m]] & (1u << k)) {
        bfs_to(cycle_nodes.back(), m, cycle_nodes);
        break;
      }
  std::uint64_t fair_needed = procs_mask, grants_needed = 0;
  if (strong)
    for (std::uint32_t m : members) grants_needed |= grant_enabled[m];
  for (std::uint32_t m : members)
    for (std::uint32_t e = graph.begin(m); e < graph.end(m); ++e) {
      if (!in_found(graph.to(e))) continue;
      const std::uint64_t new_fair = fair_of(m, e) & fair_needed;
      const int g = granted_of(e);
      const std::uint64_t new_grant = g >= 0 ? grants_needed & 1ull << g : 0;
      if (!new_fair && !new_grant) continue;
      fair_needed &= ~new_fair;
      grants_needed &= ~new_grant;
      bfs_to(cycle_nodes.back(), m, cycle_nodes);
      cycle_nodes.push_back(graph.to(e));
    }
  bfs_to(cycle_nodes.back(), entry, cycle_nodes);
  if (cycle_nodes.size() == 1) {
    // No waypoint forced a step (e.g. fairness off, no untils): take any
    // internal edge and come back.
    for (std::uint32_t e = graph.begin(entry); e < graph.end(entry); ++e) {
      if (!in_found(graph.to(e))) continue;
      cycle_nodes.push_back(graph.to(e));
      bfs_to(graph.to(e), entry, cycle_nodes);
      break;
    }
  }

  const auto stem_nodes = detail::parent_chain(seen, entry);
  result.violation = strf(
      "fair accepting lasso (fairness: %s): stem %zu steps, cycle %zu steps",
      to_string(opts.fairness), stem_nodes.size() - 1,
      cycle_nodes.size() - 1);

  if (opts.want_trace) {
    // Full product chain root -> entry -> around the cycle; system bytes are
    // the stored encodings minus the 4-byte automaton prefix.
    auto sys_span = [&](std::uint32_t idx) {
      return seen.at(idx).subspan(4);
    };
    std::vector<std::string> labels;
    ByteSource root_src(sys_span(stem_nodes.front()));
    auto cur_state = sys.decode(root_src);
    labels.push_back("initial: " + sys.describe(cur_state));
    ByteSink replay_sink;
    auto replay_step = [&](std::uint32_t idx) {
      if (sys.successors(cur_state).empty()) {
        // The product stutter-extends deadlocks; the system itself stops.
        labels.push_back("(deadlock: stutters forever)");
        return;
      }
      detail::append_step_label(sys, cur_state, symmetry, replay_sink, labels,
                                detail::same_bytes(sys_span(idx)));
    };
    for (std::size_t i = 1; i < stem_nodes.size(); ++i)
      replay_step(stem_nodes[i]);
    result.stem = std::move(labels);
    labels.clear();
    for (std::size_t i = 1; i < cycle_nodes.size(); ++i)
      replay_step(cycle_nodes[i]);
    result.cycle = std::move(labels);
  }
  return finish(Status::LivenessViolated);
}

}  // namespace ccref::verify

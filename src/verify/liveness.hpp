// Fair accepting-lasso search: LTL model checking over the Büchi product
// (the liveness side of the paper's claims — §2.5 weak-fairness progress,
// §6 per-node starvation — that the reachability checker cannot express).
//
// The engine explores the product of a system (rendezvous or asynchronous
// semantics, or any System type checker.hpp accepts) with a generalized
// Büchi automaton for the *negated* property (ltl/buchi.hpp), then runs an
// SCC-based emptiness check (iterative Tarjan): the property fails iff some
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
// Memory: product states and their BFS parents live in the same
// budget-accounted CollapsedStateSet as reachability; auxiliary arrays
// (edges, fairness marks, Tarjan stacks) are charged to the identical
// MemoryBudget, so the paper's 64 MB cap yields Status::Unfinished exactly
// like Table 3.
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

namespace detail {

/// One stored product edge. `fair` carries the weak-fairness marks (bit 0 =
/// home, bit i+1 = remote i: set when that process executed the step or was
/// disabled at its source). `granted` is the remote granted by the step
/// (Streett T_i marks), or -1.
struct ProductEdge {
  std::uint64_t fair;
  std::uint32_t to;
  std::int8_t granted;
};

/// Iterative Tarjan over the recorded product graph, restricted to nodes
/// with alive[v] != 0. Appends each SCC (as a vector of node ids) to `out`.
inline void tarjan_sccs(const std::vector<std::uint64_t>& edge_start,
                        const std::vector<ProductEdge>& edges,
                        const std::vector<std::uint8_t>& alive,
                        const std::vector<std::uint32_t>& roots,
                        std::vector<std::vector<std::uint32_t>>& out) {
  const std::uint32_t kUnvisited = 0xffffffffu;
  const std::size_t n = edge_start.size() - 1;
  std::vector<std::uint32_t> index(n, kUnvisited), low(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<std::uint32_t> stack;
  std::uint32_t counter = 0;

  struct Frame {
    std::uint32_t v;
    std::uint64_t edge;  // next outgoing edge offset to look at
  };
  std::vector<Frame> call;

  for (std::uint32_t root : roots) {
    if (!alive[root] || index[root] != kUnvisited) continue;
    call.push_back({root, edge_start[root]});
    index[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!call.empty()) {
      Frame& f = call.back();
      if (f.edge < edge_start[f.v + 1]) {
        std::uint32_t w = edges[f.edge].to;
        ++f.edge;
        if (!alive[w]) continue;
        if (index[w] == kUnvisited) {
          index[w] = low[w] = counter++;
          stack.push_back(w);
          on_stack[w] = 1;
          call.push_back({w, edge_start[w]});
        } else if (on_stack[w]) {
          if (index[w] < low[f.v]) low[f.v] = index[w];
        }
        continue;
      }
      std::uint32_t v = f.v;
      call.pop_back();
      if (!call.empty() && low[v] < low[call.back().v])
        low[call.back().v] = low[v];
      if (low[v] == index[v]) {
        std::vector<std::uint32_t> scc;
        for (;;) {
          std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          scc.push_back(w);
          if (w == v) break;
        }
        out.push_back(std::move(scc));
      }
    }
  }
}

}  // namespace detail

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
  auto proc_bit = [&](int actor) -> int {
    if (!fairness_on) return -1;
    if (actor == -1) return 0;
    if (actor >= 0 && actor < n_remotes) return actor + 1;
    return -1;
  };

  // The set keeps each state's first-discovery BFS parent: the lasso's
  // stem (and the violation summary's stem length) walk them.
  CollapsedStateSet seen(opts.memory_limit, {.compress = opts.compress},
                         /*track_parents=*/true);
  std::vector<std::uint32_t> aut_of;         // automaton component per state
  std::vector<std::uint64_t> grant_enabled;  // Streett E_i bits per state
  std::vector<std::uint64_t> edge_start;     // CSR offsets, one per state
  std::vector<detail::ProductEdge> edges;

  // Auxiliary arrays are charged to the same budget as the visited set, so
  // the 64 MB cap means the whole liveness search, like the paper's runs.
  std::size_t aux_reserved = 0;
  auto aux_bytes = [&] {
    return aut_of.capacity() * sizeof(std::uint32_t) +
           grant_enabled.capacity() * sizeof(std::uint64_t) +
           edge_start.capacity() * sizeof(std::uint64_t) +
           edges.capacity() * sizeof(detail::ProductEdge);
  };
  auto charge_aux = [&] {
    std::size_t now = aux_bytes();
    if (now <= aux_reserved) return true;
    if (!seen.budget().try_reserve(now - aux_reserved)) return false;
    aux_reserved = now;
    return true;
  };

  auto finish = [&](Status status) {
    result.status = status;
    result.states = seen.size();
    result.memory_bytes = seen.memory_used() + aux_bytes();
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
    if (ins.outcome == InsertOutcome::Exhausted)
      return finish(Status::Unfinished);
    aut_of.push_back(0);
    grant_enabled.push_back(0);
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
    edge_start.push_back(edges.size());
    const std::uint32_t q = aut_of[cursor];
    const auto at = seen.at(cursor).subspan(4);
    parent_enc.assign(at.begin(), at.end());
    ByteSource src(parent_enc);
    sys.decode_into(src, state, &parent_marks);

    auto push_product = [&](std::uint64_t v,
                            std::span<const std::byte> system_enc,
                            std::span<const ComponentMark> system_marks,
                            std::uint64_t fair, std::int8_t granted) {
      for (std::uint32_t q2 : aut.succ[q]) {
        if (!aut.admits(q2, v)) continue;
        sink.clear();
        sink.u32(q2);
        sink.boundary(kCompAutomaton);
        sink.raw(system_enc, system_marks);
        auto ins = seen.insert(sink.bytes(), sink.marks(), cursor);
        if (ins.outcome == InsertOutcome::Exhausted) return false;
        if (ins.outcome == InsertOutcome::Inserted) {
          aut_of.push_back(q2);
          grant_enabled.push_back(0);
        }
        edges.push_back({fair, ins.index, granted});
        ++result.transitions;
      }
      return true;
    };

    // The step's own process is marked on its edges here; the processes
    // disabled at this state are known only after the walk and are OR-ed
    // into every edge it recorded.
    const std::size_t first_edge = edges.size();
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
      return push_product(v, enc.bytes(), enc.marks(),
                          p >= 0 ? 1ull << p : 0,
                          grant ? static_cast<std::int8_t>(l.granted_to)
                                : std::int8_t{-1});
    };
    if (!detail::for_each_successor(sys, state, scratch,
                                    sem::LabelMode::Quiet, label, step))
      return finish(Status::Unfinished);
    grant_enabled[cursor] = genabled;
    const std::uint64_t disabled_mask = procs_mask & ~enabled;
    for (std::size_t e = first_edge; e < edges.size(); ++e)
      edges[e].fair |= disabled_mask;

    if (system_edges == 0) {
      // Deadlock: stutter-extend with an invisible self-step so the LTL
      // semantics stays over infinite words. Nothing is enabled, so every
      // weak-fairness constraint is vacuously satisfied on this edge.
      if (!push_product(valuation(state, sem::Label{}), parent_enc,
                        parent_marks, procs_mask, -1))
        return finish(Status::Unfinished);
    }
    if (!charge_aux()) return finish(Status::Unfinished);
  }
  edge_start.push_back(edges.size());

  // ---- SCC-based emptiness + fairness ------------------------------------
  const std::size_t n_states = seen.size();
  // Tarjan bookkeeping: index/low/on_stack/stacks, ~13 bytes per state.
  if (!seen.budget().try_reserve(n_states * 16))
    return finish(Status::Unfinished);
  aux_reserved += n_states * 16;

  const std::uint32_t all_acc = aut.all_acc_mask();
  std::vector<std::uint8_t> alive(n_states, 1);
  std::vector<std::uint32_t> all_roots(n_states);
  for (std::uint32_t i = 0; i < n_states; ++i) all_roots[i] = i;
  std::vector<std::vector<std::uint32_t>> work;
  detail::tarjan_sccs(edge_start, edges, alive, all_roots, work);

  // Epoch-marked membership test shared by all component inspections.
  std::vector<std::uint32_t> mark(n_states, 0);
  std::uint32_t epoch = 0;

  std::vector<std::uint32_t> found;  // members of a fair accepting SCC
  while (!work.empty() && found.empty()) {
    std::vector<std::uint32_t> members = std::move(work.back());
    work.pop_back();
    ++epoch;
    for (std::uint32_t m : members) mark[m] = epoch;

    std::uint32_t acc_u = 0;
    std::uint64_t fair_u = 0, grant_t = 0, grant_e = 0;
    bool internal = false;
    for (std::uint32_t m : members) {
      acc_u |= aut.acc[aut_of[m]];
      grant_e |= grant_enabled[m];
      for (std::uint64_t e = edge_start[m]; e < edge_start[m + 1]; ++e) {
        if (mark[edges[e].to] != epoch) continue;
        internal = true;
        fair_u |= edges[e].fair;
        if (edges[e].granted >= 0) grant_t |= 1ull << edges[e].granted;
      }
    }
    if (!internal) continue;                      // trivial SCC: no cycle
    if ((acc_u & all_acc) != all_acc) continue;   // misses a ¬φ obligation
    if ((fair_u & procs_mask) != procs_mask) continue;  // no weakly-fair cycle
    if (strong) {
      std::uint64_t bad = grant_e & ~grant_t;
      if (bad) {
        // Streett recursion: a fair cycle must avoid every state where a
        // never-taken grant is enabled (else E_i holds infinitely often
        // without T_i). Delete those states and re-decompose.
        std::vector<std::uint32_t> kept;
        for (std::uint32_t m : members)
          if (!(grant_enabled[m] & bad)) kept.push_back(m);
        if (kept.empty()) continue;
        ++epoch;
        for (std::uint32_t m : kept) mark[m] = epoch;
        for (std::uint32_t v = 0; v < n_states; ++v)
          alive[v] = mark[v] == epoch;
        detail::tarjan_sccs(edge_start, edges, alive, kept, work);
        continue;
      }
    }
    found = std::move(members);
  }

  if (found.empty()) return finish(Status::Ok);

  // ---- lasso construction ------------------------------------------------
  ++epoch;
  for (std::uint32_t m : found) mark[m] = epoch;

  // Cycle entry: the member closest to the root (shortest stem).
  std::uint32_t entry = found.front();
  for (std::uint32_t m : found) entry = std::min(entry, m);

  // Required waypoints: one member per automaton acceptance set, one edge
  // per weak-fairness constraint, one granting edge per active Streett pair.
  std::vector<std::uint32_t> state_waypoints;
  for (std::uint32_t k = 0; k < aut.num_acc; ++k)
    for (std::uint32_t m : found)
      if (aut.acc[aut_of[m]] & (1u << k)) {
        state_waypoints.push_back(m);
        break;
      }
  std::vector<std::uint64_t> edge_waypoints;  // indices into `edges`
  {
    std::uint64_t fair_needed = procs_mask;
    std::uint64_t grants_needed = 0;
    if (strong)
      for (std::uint32_t m : found) grants_needed |= grant_enabled[m];
    for (std::uint32_t m : found) {
      for (std::uint64_t e = edge_start[m]; e < edge_start[m + 1]; ++e) {
        if (mark[edges[e].to] != epoch) continue;
        std::uint64_t new_fair = edges[e].fair & fair_needed;
        bool new_grant = edges[e].granted >= 0 &&
                         (grants_needed & (1ull << edges[e].granted));
        if (new_fair || new_grant) {
          edge_waypoints.push_back(e);
          fair_needed &= ~new_fair;
          if (new_grant) grants_needed &= ~(1ull << edges[e].granted);
        }
      }
    }
  }

  // Route a closed walk: entry -> each waypoint -> entry, with BFS inside
  // the member set between stops. `edge_of` maps a CSR edge index to its
  // source node.
  auto bfs_to = [&](std::uint32_t from, std::uint32_t to,
                    std::vector<std::uint32_t>& path_out) {
    // BFS restricted to marked members; appends the nodes after `from` up
    // to and including `to` (no-op when from == to).
    if (from == to) return;
    std::vector<std::uint32_t> queue{from};
    std::unordered_map<std::uint32_t, std::uint32_t> came;  // node -> pred
    came.emplace(from, from);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      std::uint32_t v = queue[head];
      for (std::uint64_t e = edge_start[v]; e < edge_start[v + 1]; ++e) {
        std::uint32_t w = edges[e].to;
        if (mark[w] != epoch || came.count(w)) continue;
        came.emplace(w, v);
        if (w == to) {
          std::vector<std::uint32_t> rev;
          for (std::uint32_t at = to; at != from; at = came[at])
            rev.push_back(at);
          path_out.insert(path_out.end(), rev.rbegin(), rev.rend());
          return;
        }
        queue.push_back(w);
      }
    }
    CCREF_ASSERT_MSG(false, "SCC member unreachable inside its own SCC");
  };

  std::vector<std::uint32_t> cycle_nodes{entry};
  std::uint32_t cur = entry;
  for (std::uint32_t w : state_waypoints) {
    bfs_to(cur, w, cycle_nodes);
    cur = w;
  }
  for (std::uint64_t e : edge_waypoints) {
    // Find the edge's source: it lies in the CSR block of exactly one node.
    std::uint32_t from_node =
        static_cast<std::uint32_t>(
            std::upper_bound(edge_start.begin(), edge_start.end(), e) -
            edge_start.begin()) -
        1;
    bfs_to(cur, from_node, cycle_nodes);
    cycle_nodes.push_back(edges[e].to);
    cur = edges[e].to;
  }
  bfs_to(cur, entry, cycle_nodes);
  if (cycle_nodes.size() == 1) {
    // No waypoint forced a step (e.g. fairness off, no untils): take any
    // internal edge and come back.
    for (std::uint64_t e = edge_start[entry]; e < edge_start[entry + 1];
         ++e) {
      if (mark[edges[e].to] != epoch) continue;
      cycle_nodes.push_back(edges[e].to);
      bfs_to(edges[e].to, entry, cycle_nodes);
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

// Explicit-state reachability checker (the library's stand-in for SPIN).
//
// Works over any System type providing (runtime::AsyncSystem,
// sem::RendezvousSystem, the test harnesses):
//   using State = ...;  using Log = ...;   // value type; apply()'s record
//   State initial() const;
//   bool for_each_action(const State&, Visit) const;  // skips a.blocked
//   void apply(State&, const Action&, sem::LabelMode, sem::Label&,
//              Log*) const;                           // in place
//   ComponentSet touched(const Action&, const Log&) const;
//   void restore(State&, const State&, const ComponentSet&) const;
//   std::vector<std::pair<State, sem::Label>> successors(const State&)
//       const;                                        // trace replay
//   void encode(const State&, ByteSink&) const;
//   void encode_component(const State&, int, ByteSink&) const;
//   State decode(ByteSource&) const;
//   void decode_into(ByteSource&, State&, std::vector<ComponentMark>*) const;
//   void canonicalize(State&) const;
//   int num_remotes() const;                  // liveness fairness
//   std::string describe(const State&) const;
//
// Exploration is breadth-first using the visited set as the queue, so
// counter-example traces are shortest. A memory budget bounds the visited
// set; exhausting it yields Status::Unfinished — the paper's Table 3 term
// for the asynchronous protocols that outgrew 64 MB.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "sem/label.hpp"
#include "support/bytes.hpp"
#include "verify/collapse.hpp"
#include "verify/symmetry.hpp"

namespace ccref::verify {

enum class Status : std::uint8_t {
  Ok,                 // full state space explored, no violations
  Unfinished,         // memory budget exhausted (paper: "Unfinished")
  InvariantViolated,  // a reachable state failed an invariant
  Deadlock,           // a reachable state has no successors
  LivenessViolated,   // a fair accepting lasso exists (liveness.hpp)
};

[[nodiscard]] constexpr const char* to_string(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Unfinished: return "Unfinished";
    case Status::InvariantViolated: return "invariant-violated";
    case Status::Deadlock: return "deadlock";
    case Status::LivenessViolated: return "liveness-violated";
  }
  return "?";
}

struct CheckResult {
  Status status = Status::Ok;
  std::size_t states = 0;       // distinct states stored
  std::size_t transitions = 0;  // edges traversed
  std::size_t memory_bytes = 0;
  /// Bytes spent storing states: index-tuple pool plus dictionary footprint
  /// under CompressionMode::Collapse, the raw pool otherwise.
  std::size_t pool_bytes = 0;
  /// Summed raw encoding sizes of the stored states — what the pool would
  /// hold uncompressed. pool_bytes/raw_pool_bytes is the compression ratio.
  std::size_t raw_pool_bytes = 0;
  /// Pool chunk bytes held but never occupied by records — chunk-seam
  /// skips plus final-chunk tails. The honest gap between memory charged
  /// and memory used by actual data.
  std::size_t waste_bytes = 0;
  /// Disk bytes held by the external visited tier at finish (pending +
  /// history runs, order log, frontier queue). Zero without --external.
  std::size_t external_bytes = 0;
  /// Sorted-run merge passes the external tier performed (one per
  /// partition per delayed-duplicate-detection round).
  std::size_t merge_passes = 0;
  /// Bytes those merge passes read (pending runs plus history runs) and
  /// wrote (merged history runs). Zero without --external.
  std::size_t merge_bytes_read = 0;
  std::size_t merge_bytes_written = 0;
  /// Hash compaction / external tier only: birthday-bound probability
  /// that at least one distinct state was omitted because its 64-bit
  /// fingerprint collided (~states²/2⁶⁵). Zero for the exact storage
  /// tiers. Violation verdicts and their traces are exact regardless —
  /// only Ok's state count carries this caveat.
  double omission_probability = 0;
  double seconds = 0;
  std::string violation;           // message for violated invariant
  std::string note;                // engine notes (e.g. a tier subsumed)
  std::vector<std::string> trace;  // labels root -> offending state
};

template <class Sys>
struct CheckOptions {
  std::size_t memory_limit = 64u << 20;  // the paper's 64 MB
  bool detect_deadlock = true;
  bool want_trace = true;
  /// Return "" when the state is fine, otherwise the violation message.
  std::function<std::string(const typename Sys::State&)> invariant;
  /// Called on every traversed edge (used by the §4 simulation-relation
  /// checker); return "" or a violation message. Edge checks always see the
  /// concrete successor, before any canonicalization.
  std::function<std::string(const typename Sys::State&,
                            const typename Sys::State&, const sem::Label&)>
      edge_check;
  /// Canonical stores one representative per remote-permutation orbit
  /// (symmetry.hpp), through the system's canonicalize(); state counts
  /// become orbit counts.
  SymmetryMode symmetry = SymmetryMode::Off;
  /// Collapse interns state components (home, remotes, channels) in
  /// per-class dictionaries and pools only index tuples (collapse.hpp).
  /// Verdicts and state/transition counts are unchanged; pool bytes shrink.
  CompressionMode compress = CompressionMode::Off;
  /// Hash-compaction storage tier: one 64-bit fingerprint per state
  /// instead of (collapsed) bytes — ~11 B/state against ~60 raw. States
  /// whose fingerprints collide dedupe, so Ok runs carry
  /// CheckResult::omission_probability; violation verdicts stay exact
  /// (traces re-concretize by replaying real transitions). Makes
  /// `compress` moot — noted in CheckResult::note when both are set.
  bool hash_compact = false;
  /// Fingerprint override for hash compaction (tests stub deterministic
  /// collisions); null uses the engine's hash.
  FingerprintFn fingerprint = nullptr;
  /// Disk-backed visited tier (--external DIR): fingerprints live in
  /// partitioned run files behind a RAM cache front, and membership
  /// resolves by sorted-run delayed duplicate detection — the visited
  /// TABLE leaves RAM. Subsumes hash_compact (same fingerprint
  /// representation and omission bound) and makes compress moot; both are
  /// noted, not errors.
  ExternalPolicy external;
};

namespace detail {

template <class Sys>
std::vector<std::byte> encode_state(const Sys& sys,
                                    const typename Sys::State& s) {
  ByteSink sink;
  sys.encode(s, sink);
  return sink.take();
}

/// Canonicalize `s` in place when the mode asks for it.
template <class Sys>
void maybe_canonicalize(const Sys& sys, typename Sys::State& s,
                        SymmetryMode mode) {
  if (mode == SymmetryMode::Canonical) sys.canonicalize(s);
}

/// Stream the successors of `state` to `visit(succ, label, touched)` in
/// successors() order; `visit` may modify all three and returns false to
/// stop, as for_each_successor then does. `state` is copied into `scratch`
/// once, then each unblocked action is applied there in place, its touched
/// components are passed on, and just those are restored from `state` — so
/// the steady state copies and allocates almost nothing. A visitor that
/// changes more of `succ` (canonicalization permutes all of it) widens
/// `touched` to every component first, and so does an action that may
/// change every component (a rendezvous broadcast); the whole state is then
/// copied again before the next action.
template <class Sys, class Visit>
bool for_each_successor(const Sys& sys, const typename Sys::State& state,
                        typename Sys::State& scratch, sem::LabelMode mode,
                        sem::Label& label, Visit&& visit) {
  typename Sys::Log log;
  bool stale = true;  // scratch must be copied from state before applying
  return sys.for_each_action(state, [&](const auto& a) {
    if (a.blocked) return true;
    if (stale) scratch = state;
    sys.apply(scratch, a, mode, label, &log);
    ComponentSet touched = sys.touched(a, log);
    if (!visit(scratch, label, touched)) return false;
    // A widened set is restored by the next action's full copy, so the
    // symmetric path copies once per edge, as it did before the splice.
    stale = touched.all;
    if (!stale) sys.restore(scratch, state, touched);
    return true;
  });
}

/// Encode a successor from its parent's encoding `parent` (component
/// boundaries `marks`): every run of untouched components is copied in one
/// piece, every touched component is encoded fresh. Equal, byte for byte
/// and mark for mark, to encoding `succ` whole.
template <class Sys>
void splice_encode(const Sys& sys, const typename Sys::State& succ,
                   const ComponentSet& touched,
                   std::span<const std::byte> parent,
                   std::span<const ComponentMark> marks, ByteSink& sink) {
  std::size_t next = 0;  // the first component not yet in `sink`
  auto copy_clean = [&](std::size_t end) {  // components [next, end)
    if (next == end) return;
    const std::uint32_t from = next == 0 ? 0 : marks[next - 1].end;
    sink.raw(parent.subspan(from, marks[end - 1].end - from),
             marks.subspan(next, end - next), from);
  };
  for (int k = 0; k < touched.count; ++k) {
    const std::size_t c = touched.id[k];
    copy_clean(c);
    sys.encode_component(succ, static_cast<int>(c), sink);
    next = c + 1;
  }
  copy_clean(marks.size());
}

/// The engines' encode of every successor: canonicalize `succ` when the
/// symmetry mode asks for it, widening `touched` to every component, then
/// splice the encoding from the parent's (splice_encode) or, with every
/// component touched, encode it whole — exactly as before the splice.
template <class Sys>
void encode_successor(const Sys& sys, typename Sys::State& succ,
                      ComponentSet& touched, SymmetryMode symmetry,
                      std::span<const std::byte> parent,
                      std::span<const ComponentMark> marks, ByteSink& sink) {
  if (symmetry == SymmetryMode::Canonical) {
    maybe_canonicalize(sys, succ, symmetry);
    touched = ComponentSet::every();
  }
  sink.clear();
  if (!touched.all)
    return splice_encode(sys, succ, touched, parent, marks, sink);
  sys.encode(succ, sink);
}

/// One step of trace replay: advance `cur` to its first successor whose
/// (canonical) encoding satisfies `matches`, and append that step's label +
/// description to `labels`. Under symmetry the stored child is only an orbit
/// representative; matching the canonical encoding while carrying the
/// concrete successor forward re-concretizes the trace into a real path of
/// the uncanonicalized transition relation (the orbit re-search scheme — no
/// per-step permutations are stored). The caller's ByteSink is reused, so
/// replaying a chain is linear in the encoded bytes enumerated.
template <class Sys, class Match>
void append_step_label(const Sys& sys, typename Sys::State& cur,
                       SymmetryMode symmetry, ByteSink& sink,
                       std::vector<std::string>& labels, Match&& matches) {
  for (auto& [succ, label] : sys.successors(cur)) {
    sink.clear();
    if (symmetry == SymmetryMode::Canonical) {
      auto rep = succ;
      sys.canonicalize(rep);
      sys.encode(rep, sink);
    } else {
      sys.encode(succ, sink);
    }
    if (!matches(sink.bytes())) continue;
    labels.push_back(label.text + "  =>  " + sys.describe(succ));
    cur = std::move(succ);
    return;
  }
  labels.push_back("<trace reconstruction failed>");
}

/// Replay match against a stored encoding: size, then hash, then bytes.
[[nodiscard]] inline auto same_bytes(std::span<const std::byte> child) {
  return [child, hash = hash_bytes(child)](std::span<const std::byte> enc) {
    return enc.size() == child.size() && hash_bytes(enc) == hash &&
           std::equal(enc.begin(), enc.end(), child.begin());
  };
}

/// Replay a root-first chain of `length` states into trace labels (labels
/// are not stored during exploration to keep the visited set lean). `cur`
/// starts as the chain's first state; `match_at(i)` gives the replay match
/// for state i.
template <class Sys, class MatchAt>
std::vector<std::string> replay(const Sys& sys, typename Sys::State cur,
                                std::size_t length, SymmetryMode symmetry,
                                MatchAt&& match_at) {
  std::vector<std::string> labels;
  labels.push_back("initial: " + sys.describe(cur));
  ByteSink sink;
  for (std::size_t i = 1; i < length; ++i)
    append_step_label(sys, cur, symmetry, sink, labels, match_at(i));
  return labels;
}

/// The chain of BFS parents a visited set recorded from its root to
/// `target`, both included.
template <class Set>
std::vector<typename Set::Ref> parent_chain(const Set& seen,
                                            typename Set::Ref target) {
  std::vector<typename Set::Ref> chain{target};
  while (auto up = seen.parent_of(chain.back())) chain.push_back(*up);
  std::reverse(chain.begin(), chain.end());
  return chain;
}

/// Recompute the label sequence root -> `target` by replaying successor
/// enumeration along the BFS parents the visited set recorded — either
/// set: the sequential CollapsedStateSet (Ref = insertion number) or the
/// parallel ShardedStateSet (Ref = shard and record).
///
/// Under the fingerprint tiers (hash compaction, external) the set kept no
/// state bytes, so the chain's fingerprints select among the real
/// successors of a replay from the system's concrete initial state. Every
/// step replayed is a real transition enumerated from a concrete state, so
/// the trace is a genuine path of the system. (A mid-chain collision could
/// select a different genuine successor; the violation itself was
/// established on the concrete state at exploration time, so the endpoint
/// is never fabricated.) The byte tiers replay from the decoded root
/// against each stored encoding.
template <class Sys, class Set>
std::vector<std::string> rebuild_trace(const Sys& sys, const Set& seen,
                                       typename Set::Ref target,
                                       SymmetryMode symmetry) {
  const auto chain = parent_chain(seen, target);
  if (seen.fingerprinted()) {
    const FingerprintFn fp = seen.fingerprint_fn();
    return replay(sys, sys.initial(), chain.size(), symmetry,
                  [&](std::size_t i) {
                    return [fp, want = seen.fingerprint_of(chain[i])](
                               std::span<const std::byte> enc) {
                      return fp(enc) == want;
                    };
                  });
  }
  // Copy each state's bytes: under Collapse, at() re-expands into a
  // scratch buffer (the parallel set's is the caller's) that the next at()
  // overwrites.
  std::vector<std::vector<std::byte>> owned;
  std::vector<std::byte> scratch;
  for (const auto& r : chain) {
    std::span<const std::byte> b;
    if constexpr (requires { seen.at(r, scratch); })
      b = seen.at(r, scratch);
    else
      b = seen.at(r);
    owned.emplace_back(b.begin(), b.end());
  }
  ByteSource root_src(owned.front());
  return replay(sys, sys.decode(root_src), owned.size(), symmetry,
                [&](std::size_t i) { return same_bytes(owned[i]); });
}

/// Append `text` to an engine note, "; "-separated.
inline void append_note(std::string& note, const std::string& text) {
  if (!note.empty()) note += "; ";
  note += text;
}

/// What a CheckOptions asks of the visited set once the tiers are composed:
/// the StorageOptions to build it with and the notes naming every option
/// that another tier makes moot.
struct ResolvedStorage {
  StorageOptions storage;
  std::string note;
};

/// The one tier resolver behind explore() and par_explore(), so both engines
/// build the same visited-set tiers and report the same notes in the same
/// order.
template <class Sys>
[[nodiscard]] ResolvedStorage resolve_storage(const CheckOptions<Sys>& opts) {
  const bool external = opts.external.enabled();
  // External subsumes hash compaction: it stores the same fingerprints,
  // with membership on disk.
  const bool hash_compact = opts.hash_compact && !external;
  ResolvedStorage r;
  r.storage = {.compress = opts.compress,
               .hash_compact = hash_compact,
               .fingerprint = opts.fingerprint,
               // The fingerprint log (the on-disk order log under the
               // external tier) exists only to re-concretize
               // counterexamples; skip it when no trace is wanted.
               .keep_fingerprints =
                   (hash_compact || external) && opts.want_trace,
               .external = opts.external};
  if (external && opts.hash_compact)
    append_note(r.note,
                "hash-compact is subsumed by the external tier: it stores "
                "the same 64-bit fingerprints, on disk");
  if ((hash_compact || external) && opts.compress != CompressionMode::Off)
    append_note(
        r.note,
        "compress ignored under hash compaction: fingerprints leave no "
        "stored bytes to compress");
  return r;
}

/// Copy a finished run's visited-set statistics into `result`. Under the
/// fingerprinted tiers (hash compaction, external) an Ok state count
/// carries the birthday-bound omission probability. The external tier's
/// disk counters live on the sequential set only; explore() copies them.
template <class Set>
void fill_storage_stats(CheckResult& result, const Set& seen,
                        bool fingerprinted) {
  result.states = seen.size();
  result.memory_bytes = seen.memory_used();
  result.pool_bytes = seen.stored_bytes();
  result.raw_pool_bytes = seen.raw_bytes();
  result.waste_bytes = seen.waste_bytes();
  if (fingerprinted) result.omission_probability = omission_bound(seen.size());
}

/// How a bfs_reach() run ended.
enum class BfsOutcome : std::uint8_t {
  Complete,   // every reachable state expanded
  Exhausted,  // the visited set's memory budget refused an insert
  Stopped,    // a callback returned false (violation found, etc.)
};

/// Breadth-first reachability skeleton shared by explore() and
/// check_progress(): root insertion, cursor-queue decode, and the
/// canonicalize/encode/insert path for every successor live here exactly
/// once. Policy hangs off four callbacks, each returning false to stop:
///
///   on_expand(index, state)                   before a state's edges
///   on_edge(from, state, succ, label)         per edge, on the *concrete*
///                                             successor (pre-canonicalize;
///                                             edge checks need this)
///   on_insert(from, insert_result, succ, label)
///                                             after the insert attempt;
///                                             succ is canonicalized here
///   on_deadlock(index, state)                 after a state that has no
///                                             enabled transition at all
///
/// `state` and `succ` are reused storage: the engine decodes every expanded
/// state into one target and streams its successors through one scratch
/// state (for_each_successor), so callbacks must copy what they keep.
template <class Sys, class OnExpand, class OnEdge, class OnInsert,
          class OnDeadlock>
BfsOutcome bfs_reach(const Sys& sys, CollapsedStateSet& seen,
                     SymmetryMode symmetry, sem::LabelMode mode,
                     OnExpand&& on_expand, OnEdge&& on_edge,
                     OnInsert&& on_insert, OnDeadlock&& on_deadlock) {
  // Reused across every encode below; it records component marks only
  // for a tier that reads them.
  ComponentSink sink(seen.collapses());
  {
    auto root = sys.initial();
    maybe_canonicalize(sys, root, symmetry);
    sys.encode(root, sink);
    auto ins = seen.insert(sink.bytes(), sink.marks());
    if (ins.outcome == InsertOutcome::Exhausted)
      return BfsOutcome::Exhausted;
    if (ins.outcome == InsertOutcome::Deferred) {
      // External tier: the root is pending in a partition file; one
      // resolve admits it (it cannot be a duplicate of anything).
      if (seen.resolve_pending() == ResolveOutcome::Failed)
        return BfsOutcome::Exhausted;
      CCREF_ASSERT(seen.size() == 1);
    } else {
      CCREF_ASSERT(ins.outcome == InsertOutcome::Inserted);
    }
  }
  // Decode target of every expansion and successor target of every edge.
  auto state = sys.initial();
  auto scratch = state;
  sem::Label label;
  // The expanded state's encoding and component marks, which successors
  // are spliced from. The bytes are copied out of the set: the external
  // tier's at() span dies at the next insert. Under Collapse, also its
  // stored index tuple, whose indices the successors' inserts reuse.
  std::vector<std::byte> parent;
  std::vector<ComponentMark> parent_marks;
  ParentTuple parent_tuple;
  for (std::uint32_t cursor = 0;; ++cursor) {
    if (cursor >= seen.size()) {
      // Deferred-frontier phase (external tier): the in-order frontier is
      // spent, but partitions may hold pending fingerprints below their
      // watermarks. Merge them all; genuinely-new states extend the
      // frontier and the sweep continues. RAM tiers answer Drained
      // immediately — this branch is their loop exit, same cost as the
      // old `cursor < seen.size()` condition.
      const ResolveOutcome rr = seen.resolve_pending();
      if (rr == ResolveOutcome::Failed) return BfsOutcome::Exhausted;
      if (rr == ResolveOutcome::Drained) break;
    }
    const auto at = seen.at(cursor);
    parent.assign(at.begin(), at.end());
    ByteSource src(parent);
    sys.decode_into(src, state, &parent_marks);
    if (seen.collapses()) parent_tuple.load(seen.tuple_at(cursor));
    if (!on_expand(cursor, state)) return BfsOutcome::Stopped;

    std::size_t edges = 0;
    BfsOutcome outcome = BfsOutcome::Complete;
    auto step = [&](auto& succ, sem::Label& l, ComponentSet& touched) {
      ++edges;
      if (!on_edge(cursor, state, succ, l)) {
        outcome = BfsOutcome::Stopped;
        return false;
      }
      encode_successor(sys, succ, touched, symmetry, parent, parent_marks,
                       sink);
      auto ins = seen.insert(sink.bytes(), sink.marks(), cursor,
                             {&parent_tuple, touched});
      if (ins.outcome == InsertOutcome::Exhausted) {
        outcome = BfsOutcome::Exhausted;
        return false;
      }
      if (!on_insert(cursor, ins, succ, l)) {
        outcome = BfsOutcome::Stopped;
        return false;
      }
      return true;
    };
    if (!for_each_successor(sys, state, scratch, mode, label, step))
      return outcome;
    if (edges == 0 && !on_deadlock(cursor, state)) return BfsOutcome::Stopped;
  }
  return BfsOutcome::Complete;
}

}  // namespace detail

template <class Sys>
[[nodiscard]] CheckResult explore(const Sys& sys,
                                  const CheckOptions<Sys>& opts = {}) {
  auto t0 = std::chrono::steady_clock::now();
  CheckResult result;
  const bool external = opts.external.enabled();
  auto resolved = detail::resolve_storage(opts);
  result.note = std::move(resolved.note);
  const StorageOptions& st = resolved.storage;
  CollapsedStateSet seen(opts.memory_limit, st,
                         /*track_parents=*/opts.want_trace);

  auto finish = [&](Status status) {
    result.status = status;
    detail::fill_storage_stats(result, seen, st.hash_compact || external);
    result.external_bytes = seen.external_bytes();
    result.merge_passes = seen.merge_passes();
    result.merge_bytes_read = seen.merge_bytes_read();
    result.merge_bytes_written = seen.merge_bytes_written();
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
  };

  // Labels feed nothing on the hot path unless an edge check reads them;
  // traces are rebuilt (with full labels) only after a violation.
  const sem::LabelMode mode =
      opts.edge_check ? sem::LabelMode::Full : sem::LabelMode::Quiet;

  // Violation details are captured here by the callbacks; the trace is
  // rebuilt once bfs_reach returns Stopped.
  Status stop_status = Status::Ok;
  std::uint32_t stop_index = 0;
  std::string stop_msg;
  auto stop = [&](Status status, std::uint32_t index, std::string msg) {
    stop_status = status;
    stop_index = index;
    stop_msg = std::move(msg);
    return false;
  };

  auto outcome = detail::bfs_reach(
      sys, seen, opts.symmetry, mode,
      [&](std::uint32_t index, const auto& state) {
        // RAM tiers check invariants on fresh successors at insertion (and
        // the root here); the external tier never materializes a fresh
        // successor at insert time — states surface at merge resolution —
        // so every state is checked when it is expanded instead. Same
        // coverage: each admitted state is expanded exactly once.
        if ((index == 0 || external) && opts.invariant) {
          std::string msg = opts.invariant(state);
          if (!msg.empty())
            return stop(Status::InvariantViolated, index, msg);
        }
        return true;
      },
      [&](std::uint32_t from, const auto& state, const auto& succ,
          const sem::Label& label) {
        ++result.transitions;
        if (opts.edge_check) {
          std::string msg = opts.edge_check(state, succ, label);
          if (!msg.empty())
            return stop(Status::InvariantViolated, from,
                        "edge '" + label.text + "': " + msg);
        }
        return true;
      },
      [&](std::uint32_t, const CollapsedStateSet::InsertResult& ins,
          const auto& succ, const sem::Label&) {
        if (ins.outcome != InsertOutcome::Inserted) return true;
        if (opts.invariant) {
          std::string msg = opts.invariant(succ);
          if (!msg.empty())
            return stop(Status::InvariantViolated, ins.index, msg);
        }
        return true;
      },
      [&](std::uint32_t index, const auto& state) {
        if (!opts.detect_deadlock) return true;
        return stop(Status::Deadlock, index,
                    "deadlock: no enabled transition in " +
                        sys.describe(state));
      });

  switch (outcome) {
    case detail::BfsOutcome::Exhausted: return finish(Status::Unfinished);
    case detail::BfsOutcome::Stopped:
      result.violation = std::move(stop_msg);
      if (opts.want_trace)
        result.trace =
            detail::rebuild_trace(sys, seen, stop_index, opts.symmetry);
      return finish(stop_status);
    case detail::BfsOutcome::Complete: break;
  }
  return finish(Status::Ok);
}

}  // namespace ccref::verify

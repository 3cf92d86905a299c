// Synchronous (rendezvous) semantics of a star protocol: the atomic-
// transaction view the designer writes and model-checks first (paper §2.3).
//
// A global state is the home's (control state, store) plus each remote's.
// Transitions are:
//   τ      — one process takes an autonomous move;
//   sync   — an enabled output guard in one process meets a matching input
//            guard in the addressed partner; payload transfer, both actions
//            and both state changes happen atomically;
//   bcast  — (topology bus) a remote's broadcast meets the home's input and
//            every other remote snoops it, all in one atomic step.
//
// Like runtime::AsyncSystem, the semantics is written as guarded actions:
// for_each_action() reports every enabled transition as a small RvAction
// descriptor and apply() executes one in place, so the checkers expand a
// state through one scratch state (verify::detail::for_each_successor).
#pragma once

#include <vector>

#include "ir/permute.hpp"
#include "ir/process.hpp"
#include "ir/store.hpp"
#include "sem/label.hpp"
#include "support/bytes.hpp"
#include "support/contracts.hpp"
#include "support/node_set.hpp"

namespace ccref::sem {

/// One enabled transition of the rendezvous semantics. apply() reads every
/// other detail (targets, payloads, the snoopers of a broadcast) from the
/// state the action was enumerated in.
struct RvAction {
  enum class Kind : std::uint8_t {
    Tau,    // `actor` takes τ guard `out`
    Sync,   // `actor`'s output guard `out` meets `partner`'s input `in`
    Bcast,  // remote `actor`'s bus output `out` meets the home's input
            // `in`; every other remote snoops
  };
  /// Nothing waits on a channel at the rendezvous level.
  static constexpr bool blocked = false;

  Kind kind = Kind::Tau;
  std::int8_t actor = -1;    // -1 home, >= 0 remote
  std::int8_t partner = -1;  // Sync: the passive process (-1 home)
  std::uint8_t out = 0;      // τ or output guard index in the actor's state
  std::uint8_t in = 0;       // input guard index in the passive state
};

/// One process instance's slice of the global state.
struct ProcState {
  ir::StateId state = 0;
  ir::Store store;

  friend bool operator==(const ProcState&, const ProcState&) = default;
};

/// Global state of the rendezvous system: home + n remotes.
struct RvState {
  ProcState home;
  std::vector<ProcState> remotes;

  friend bool operator==(const RvState&, const RvState&) = default;
};

class RendezvousSystem {
 public:
  using State = RvState;
  /// apply() records nothing for touched(): the action names its processes.
  struct Log {};

  RendezvousSystem(const ir::Protocol& protocol, int num_remotes);

  [[nodiscard]] State initial() const;

  /// Call `visit(const RvAction&)` on every enabled transition of `s`, in
  /// successors() order: home τs, remote τs, home-active syncs, then each
  /// remote's active syncs and broadcasts. `visit` returns false to stop
  /// early; so does for_each_action then.
  template <class Visit>
  bool for_each_action(const State& s, Visit&& visit) const;

  /// Execute `a`, enumerated in `s`, by mutating `s` in place. Resets and
  /// fills `l` (text only under LabelMode::Full).
  void apply(State& s, const RvAction& a, LabelMode mode, Label& l,
             Log* log = nullptr) const;

  /// Every enabled transition, each applied to its own copy of `s`.
  /// `LabelMode::Quiet` skips `Label::text` formatting.
  [[nodiscard]] std::vector<std::pair<State, Label>> successors(
      const State& s, LabelMode mode = LabelMode::Full) const;

  /// The components `a` changed: the actor, and a sync's partner. A
  /// broadcast may change every process, so it reports every component.
  [[nodiscard]] ComponentSet touched(const RvAction& a, const Log&) const {
    if (a.kind == RvAction::Kind::Bcast) return ComponentSet::every();
    ComponentSet t;
    t.add(static_cast<std::uint16_t>(a.actor + 1));
    if (a.kind == RvAction::Kind::Sync)
      t.add(static_cast<std::uint16_t>(a.partner + 1));
    return t;
  }

  /// Copy the components listed in `set` from `src` into `dst`, reusing
  /// `dst`'s capacity. A set widened to every component is a plain
  /// copy-assignment, not a restore.
  void restore(State& dst, const State& src, const ComponentSet& set) const {
    for (int k = 0; k < set.count; ++k)
      proc(dst, set.id[k]) = proc(src, set.id[k]);
  }

  /// An encoded state is 1 + n components, each closed by one boundary:
  /// component 0 is the home, 1+i remote i. encode() and decode_into() are
  /// loops over the per-component codec.
  [[nodiscard]] int num_components() const { return 1 + n_; }

  /// COLLAPSE dictionary classes (verify/collapse.hpp). All remotes share
  /// kCompRemote.
  static constexpr std::uint8_t kCompHome = 0;
  static constexpr std::uint8_t kCompRemote = 1;

  void encode(const State& s, ByteSink& sink) const;
  /// Encode component `c` of `s` and close it with its boundary.
  void encode_component(const State& s, int c, ByteSink& sink) const;
  [[nodiscard]] State decode(ByteSource& src) const;
  /// decode() into an existing state, reusing its capacity. With `marks`,
  /// also report each component's boundary, as encode() records it into a
  /// ComponentSink.
  void decode_into(ByteSource& src, State& s,
                   std::vector<ComponentMark>* marks = nullptr) const;

  /// Human-readable dump for error traces.
  [[nodiscard]] std::string describe(const State& s) const;

  /// Apply a remote-index permutation (perm[old] == new) to `s`: reorder the
  /// remote vector and rename every Node/NodeSet value through the same
  /// permutation. The result is observationally equivalent to `s` because
  /// all n remotes run the same process definition.
  void permute(State& s, const ir::NodePerm& perm) const;

  /// Rewrite `s` in place to its orbit's canonical representative under
  /// remote permutation (verify::SymmetryMode::Canonical): remotes are
  /// sorted by an identity-independent signature and the inducing
  /// permutation is applied via permute().
  void canonicalize(State& s) const;

  [[nodiscard]] const ir::Protocol& protocol() const { return *protocol_; }
  [[nodiscard]] int num_remotes() const { return n_; }

 private:
  static constexpr std::uint8_t u8(std::size_t v) {
    return static_cast<std::uint8_t>(v);
  }
  /// Component `c` of a state: 0 the home, 1+i remote i.
  static ProcState& proc(State& s, int c) {
    return c == 0 ? s.home : s.remotes[c - 1];
  }
  static const ProcState& proc(const State& s, int c) {
    return c == 0 ? s.home : s.remotes[c - 1];
  }

  void apply_tau(State& s, const RvAction& a, bool text, Label& l) const;
  void apply_sync(State& s, const RvAction& a, bool text, Label& l) const;
  /// One atomic step for the whole bus (DESIGN.md §4.9).
  void apply_bcast(State& s, const RvAction& a, bool text, Label& l) const;

  const ir::Protocol* protocol_;
  int n_;
};

// ---- the enumerator -------------------------------------------------------
// A template, so the checkers' visitor inlines into it.

template <class Visit>
bool RendezvousSystem::for_each_action(const State& s, Visit&& visit) const {
  using K = RvAction::Kind;
  auto act = [&](K kind, int actor, int partner, std::size_t out,
                 std::size_t in) {
    return visit(RvAction{kind, static_cast<std::int8_t>(actor),
                          static_cast<std::int8_t>(partner), u8(out), u8(in)});
  };
  // τ moves: the home's, then each remote's.
  for (int p = -1; p < n_; ++p) {
    const ProcState& ps = proc(s, p + 1);
    const ir::Process& process = p < 0 ? protocol_->home : protocol_->remote;
    const auto& taus = process.state(ps.state).taus;
    for (std::size_t g = 0; g < taus.size(); ++g)
      if ((!taus[g].cond || ir::eval(*taus[g].cond, ps.store, {p})) &&
          !act(K::Tau, p, -1, g, 0))
        return false;
  }

  // Home-active syncs: an enabled home output meets an input of a remote it
  // addresses.
  const ir::State& hs = protocol_->home.state(s.home.state);
  const ir::EvalCtx hctx{-1};
  for (std::size_t g = 0; g < hs.outputs.size(); ++g) {
    const ir::OutputGuard& og = hs.outputs[g];
    if (og.cond && !ir::eval(*og.cond, s.home.store, hctx)) continue;
    NodeSet targets;
    if (og.to.kind == ir::PeerSel::Kind::Expr) {
      std::int64_t j = ir::eval(*og.to.expr, s.home.store, hctx);
      CCREF_ASSERT_MSG(j >= 0 && j < n_, "home addressed a non-existent remote");
      targets.add(static_cast<NodeId>(j));
    } else if (og.to.kind == ir::PeerSel::Kind::AnyInSet) {
      targets = NodeSet(static_cast<std::uint64_t>(
          ir::eval(*og.to.expr, s.home.store, hctx)));
    }
    for (NodeId j : targets) {
      if (j >= n_) continue;
      const ir::State& rs = protocol_->remote.state(s.remotes[j].state);
      if (rs.kind != ir::StateKind::Comm) continue;
      for (std::size_t gi = 0; gi < rs.inputs.size(); ++gi) {
        const ir::InputGuard& ig = rs.inputs[gi];
        if (ig.msg != og.msg) continue;
        CCREF_ASSERT(ig.from.kind == ir::PeerSrc::Kind::Home);
        if (ig.cond && !ir::eval(*ig.cond, s.remotes[j].store, {j})) continue;
        if (!act(K::Sync, -1, j, g, gi)) return false;
      }
    }
  }

  // Remote-active syncs and broadcasts: an enabled remote output meets a
  // home input that accepts it from that remote.
  if (hs.kind != ir::StateKind::Comm) return true;
  for (int i = 0; i < n_; ++i) {
    const ProcState& r = s.remotes[i];
    const ir::State& rs = protocol_->remote.state(r.state);
    if (rs.kind != ir::StateKind::Comm) continue;
    for (std::size_t g = 0; g < rs.outputs.size(); ++g) {
      const ir::OutputGuard& og = rs.outputs[g];
      if (og.cond && !ir::eval(*og.cond, r.store, {i})) continue;
      CCREF_ASSERT(og.to.kind == ir::PeerSel::Kind::Home ||
                   og.to.kind == ir::PeerSel::Kind::Bcast);
      const K kind =
          og.to.kind == ir::PeerSel::Kind::Bcast ? K::Bcast : K::Sync;
      for (std::size_t gi = 0; gi < hs.inputs.size(); ++gi) {
        const ir::InputGuard& ig = hs.inputs[gi];
        if (ig.msg != og.msg) continue;
        // Home and Bcast sources are impossible after validation.
        const bool src_ok =
            ig.from.kind == ir::PeerSrc::Kind::Any ||
            (ig.from.kind == ir::PeerSrc::Kind::Expr &&
             ir::eval(*ig.from.expr, s.home.store, hctx) == i);
        if (!src_ok) continue;
        if (ig.cond && !ir::eval(*ig.cond, s.home.store, hctx)) continue;
        if (!act(kind, i, -1, g, gi)) return false;
      }
    }
  }
  return true;
}

}  // namespace ccref::sem

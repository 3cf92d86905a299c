// Synchronous (rendezvous) semantics of a star protocol: the atomic-
// transaction view the designer writes and model-checks first (paper §2.3).
//
// A global state is the home's (control state, store) plus each remote's.
// Transitions are:
//   τ      — one process takes an autonomous move;
//   sync   — an enabled output guard in one process meets a matching input
//            guard in the addressed partner; payload transfer, both actions
//            and both state changes happen atomically.
#pragma once

#include <vector>

#include "ir/permute.hpp"
#include "ir/process.hpp"
#include "ir/store.hpp"
#include "sem/label.hpp"
#include "support/bytes.hpp"

namespace ccref::sem {

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

  RendezvousSystem(const ir::Protocol& protocol, int num_remotes);

  [[nodiscard]] State initial() const;

  /// Enumerate all enabled transitions in deterministic order.
  [[nodiscard]] std::vector<std::pair<State, Label>> successors(
      const State& s) const {
    return successors(s, LabelMode::Full);
  }

  /// Same enumeration; `LabelMode::Quiet` skips `Label::text` formatting on
  /// the checker's hot path.
  [[nodiscard]] std::vector<std::pair<State, Label>> successors(
      const State& s, LabelMode mode) const;

  /// COLLAPSE dictionary classes (verify/collapse.hpp): encode() closes the
  /// home machine and each remote machine as components. All remotes share
  /// kCompRemote.
  static constexpr std::uint8_t kCompHome = 0;
  static constexpr std::uint8_t kCompRemote = 1;

  void encode(const State& s, ByteSink& sink) const;
  [[nodiscard]] State decode(ByteSource& src) const;

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
  void tau_moves(const State& s, int proc /* -1 = home */, LabelMode mode,
                 std::vector<std::pair<State, Label>>& out) const;
  void home_active(const State& s, LabelMode mode,
                   std::vector<std::pair<State, Label>>& out) const;
  void remote_active(const State& s, int i, LabelMode mode,
                     std::vector<std::pair<State, Label>>& out) const;
  void fire(const State& s, const ir::OutputGuard& og, int active,
            const ir::InputGuard& ig, int passive, LabelMode mode,
            std::vector<std::pair<State, Label>>& out) const;
  /// Bus broadcast (topology bus): requester i fires `og` against the home
  /// input `hg`; every *other* remote snoops via its first enabled
  /// PeerSrc::Kind::Bcast guard (no guard = the snoop is ignored). One
  /// atomic step for the whole bus; its footprint is all nodes (DESIGN.md
  /// §4.9).
  void fire_bcast(const State& s, const ir::OutputGuard& og, int i,
                  const ir::InputGuard& hg, LabelMode mode,
                  std::vector<std::pair<State, Label>>& out) const;

  const ir::Protocol* protocol_;
  int n_;
};

}  // namespace ccref::sem

// Asynchronous semantics of a refined protocol: the executable form of the
// paper's Tables 1 (remote rules C1-C3, T1-T3) and 2 (home rules C1-C2,
// T1-T6), including the buffer-reservation scheme (progress buffer and ack
// buffer), the implicit-nack rule R3, the §3.3 request/reply fusion, and the
// split bus transaction of `topology bus` protocols.
//
// The semantics is written once, as guarded actions (the representation of
// Meunier et al.'s Guarded Action Language): an enumerator reports every
// guard-enabled Action of a state as a small descriptor, and apply() executes
// one descriptor in place — the System interface the checkers expand
// (verify/checker.hpp), shared with sem::RendezvousSystem. successors() is
// "enumerate, copy, apply"; the discrete-event simulator (sim/des.hpp) picks
// one action per step and applies it to its live state.
#pragma once

#include <string>
#include <vector>

#include "ir/permute.hpp"
#include "refine/refined.hpp"
#include "runtime/async_state.hpp"
#include "sem/label.hpp"
#include "support/contracts.hpp"

namespace ccref::runtime {

/// One guard-enabled transition of the asynchronous semantics, as a small
/// descriptor. Which fields are meaningful depends on the kind; apply()
/// reads everything else from the state the action was enumerated in.
struct Action {
  enum class Kind : std::uint8_t {
    DeliverUp,       // head of up[remote] reaches the home (Table 2 T1-T6)
    DeliverDown,     // head of down[remote] reaches the remote (Table 1 T1-T3)
    HomeTau,         // home τ `guard`
    HomeC1,          // buffered request in `slot` completes input `guard`
    BusOpen,         // buffered broadcast in `slot` opens a bus transaction
                     // recording input `guard`
    BusSnoop,        // snoop the next pending remote, `target`
    BusCommit,       // every snoop answered: apply the recorded guard, ack
    HomeC2,          // output `guard` toward `target`; `slot` is the
                     // buffered request nacked to free the ack buffer
    RemoteSnoop,     // remote answers its parked snoop through bcast input
                     // `guard` (kNone: ignored)
    RemoteTau,       // remote τ `guard`
    RemoteSend,      // remote active send (Table 1 C1/C2)
    RemoteC3Answer,  // buffered home request answered through input `guard`
    RemoteC3Nack,    // buffered home request matches no guard: nack it
  };
  static constexpr std::uint8_t kNone = 0xff;

  Kind kind = Kind::DeliverUp;
  std::uint8_t remote = 0;  // channel or acting remote
  /// Home buffer slot. DeliverUp of a request: the slot it is admitted to,
  /// kNone when it is nacked instead.
  std::uint8_t slot = kNone;
  std::uint8_t guard = 0;
  std::uint8_t target = 0;
  /// Enabled by its guard but not now: a message it sends would overflow
  /// a full channel. successors() skips these; the simulator waits.
  bool blocked = false;
};

/// Wire messages pushed by one applied action, so a discrete-event scheduler
/// can enqueue their deliveries without diffing channel lengths. An action
/// pushes at most two (home C2: eviction nack + the new request).
struct SendLog {
  struct Entry {
    bool up;            // true: up[node] (remote→home); false: down[node]
    std::uint8_t node;  // channel index
    Meta meta;
    ir::MsgId msg;  // the pushed message's `msg` field
  };
  std::uint8_t count = 0;
  Entry e[2];

  void add(bool up, std::uint8_t node, Meta meta, ir::MsgId msg) {
    CCREF_ASSERT(count < 2);
    e[count++] = {up, node, meta, msg};
  }
  void clear() { count = 0; }
};

class AsyncSystem {
 public:
  using State = AsyncState;
  using Log = SendLog;

  AsyncSystem(const refine::RefinedProtocol& refined, int num_remotes);
  /// The system keeps a pointer to `refined`, so a temporary would dangle.
  AsyncSystem(refine::RefinedProtocol&&, int) = delete;

  [[nodiscard]] State initial() const;

  /// Call `visit(const Action&)` on every guard-enabled action of `s`,
  /// capacity-blocked ones included (flagged), in successors() order:
  /// deliveries to the home, deliveries to remotes, home local steps (τ /
  /// C1 / C2, or the open bus transaction's next step), remote local steps
  /// (snoop answer / τ / active send / C3). `visit` returns false to stop
  /// early; so does for_each_action then.
  template <class Visit>
  bool for_each_action(const State& s, Visit&& visit) const;

  /// The same enumeration, one part at a time: the delivery of a nonempty
  /// channel's head (always exactly one action), the home's local actions,
  /// and remote `i`'s local actions.
  [[nodiscard]] Action up_delivery(const State& s, int i) const;
  [[nodiscard]] Action down_delivery(const State&, int i) const {
    return {.kind = Action::Kind::DeliverDown, .remote = u8(i)};
  }
  template <class Visit>
  bool for_each_home_action(const State& s, Visit&& visit) const;
  template <class Visit>
  bool for_each_remote_action(const State& s, int i, Visit&& visit) const;

  /// Execute `a`, enumerated in `s`, by mutating `s` in place. Resets and
  /// fills `l` (text only under LabelMode::Full) and `log`. Checks no
  /// channel capacity: the enumerator already flagged blocked actions.
  void apply(State& s, const Action& a, sem::LabelMode mode, sem::Label& l,
             SendLog* log = nullptr) const;

  /// Every unblocked action, each applied to its own copy of `s`.
  /// `LabelMode::Quiet` skips `Label::text` formatting.
  [[nodiscard]] std::vector<std::pair<State, sem::Label>> successors(
      const State& s, sem::LabelMode mode = sem::LabelMode::Full) const;

  /// The components `a` changed when apply() ran it and filled `log`: the
  /// actor (the home, or remote i for deliveries down and remote actions),
  /// up[i] for a delivery up, down[i] for a delivery down, and every
  /// channel in `log`. At most four ids, whatever n is.
  [[nodiscard]] ComponentSet touched(const Action& a, const SendLog& log) const;

  /// Copy the components listed in `set` from `src` into `dst`, reusing
  /// `dst`'s capacity. `dst` has this system's shape; a set widened to
  /// every component is a plain copy-assignment, not a restore.
  void restore(State& dst, const State& src, const ComponentSet& set) const;

  /// An encoded state is 1 + 3n components, each closed by one boundary:
  /// component 0 is the home (with its bus transaction), 1+i remote i,
  /// 1+n+i up[i] and 1+2n+i down[i]. encode() and decode_into() are loops
  /// over the per-component codec below.
  [[nodiscard]] int num_components() const { return 1 + 3 * n_; }

  /// COLLAPSE dictionary classes (verify/collapse.hpp), one boundary per
  /// component. All remotes share kCompRemote — they are the same process,
  /// so one dictionary serves every position.
  static constexpr std::uint8_t kCompHome = 0;
  static constexpr std::uint8_t kCompRemote = 1;
  static constexpr std::uint8_t kCompUp = 2;
  static constexpr std::uint8_t kCompDown = 3;

  void encode(const State& s, ByteSink& sink) const;
  /// Encode component `c` of `s` and close it with its boundary.
  void encode_component(const State& s, int c, ByteSink& sink) const;
  [[nodiscard]] State decode(ByteSource& src) const;
  /// decode() into an existing state, reusing its vectors' capacity: the
  /// checkers decode every expanded state into one per-worker target. With
  /// `marks`, also report each component's boundary, as encode() records it
  /// into a ComponentSink.
  void decode_into(ByteSource& src, State& s,
                   std::vector<ComponentMark>* marks = nullptr) const;
  /// Decode component `c` into `s`, which has this system's shape.
  void decode_component(ByteSource& src, State& s, int c) const;
  [[nodiscard]] std::string describe(const State& s) const;

  /// Apply a remote-index permutation (perm[old] == new) to `s`: reorder the
  /// remote machines and their up/down channels, and rename every
  /// node-indexed fact — message src fields, Node/NodeSet message payloads,
  /// store variables, and the home's pending transient target — through the
  /// same permutation.
  void permute(State& s, const ir::NodePerm& perm) const;

  /// Rewrite `s` in place to its orbit's canonical representative under
  /// remote permutation (verify::SymmetryMode::Canonical).
  void canonicalize(State& s) const;

  [[nodiscard]] const refine::RefinedProtocol& refined() const {
    return *refined_;
  }
  [[nodiscard]] const ir::Protocol& protocol() const {
    return *refined_->base;
  }
  [[nodiscard]] int num_remotes() const { return n_; }

 private:
  static constexpr int kHome = -1;  // EvalCtx::self of the home
  static constexpr std::uint8_t u8(std::size_t v) {
    return static_cast<std::uint8_t>(v);
  }

  // ---- apply, one function per part ----
  void apply_up(State& s, const Action& a, bool text, sem::Label& l,
                SendLog* log) const;
  void apply_down(State& s, const Action& a, bool text, sem::Label& l) const;
  void apply_home(State& s, const Action& a, bool text, sem::Label& l,
                  SendLog* log) const;
  void apply_remote(State& s, const Action& a, bool text, sem::Label& l,
                    SendLog* log) const;

  // ---- helpers ----
  /// Does message m satisfy some input guard of home state `sid`? (§3.2's
  /// "known to complete a rendezvous in the current state".)
  [[nodiscard]] bool satisfies_home_guard(const State& s, ir::StateId sid,
                                          const Msg& m) const;
  /// Buffer admission per Table 2 rows T4-T6 / the progress-buffer rule.
  /// Returns true to buffer, false to nack.
  [[nodiscard]] bool admit(const HomeMachine& hm, const State& s,
                           const Msg& m, bool in_transient) const;
  /// Evaluate an output guard's payload with the target visible to the
  /// expression (without mutating the live store).
  [[nodiscard]] std::vector<ir::Value> eval_payload(
      const ir::OutputGuard& og, const ir::Store& store, int actor,
      int target) const;
  /// Apply a completed home output transition (bind target, action, move).
  void apply_home_output(HomeMachine& hm, const ir::OutputGuard& og,
                         int target) const;
  /// Apply an input guard on a process store/state.
  void apply_input(const ir::Process& proc, ir::Store& store,
                   ir::StateId& state, const ir::InputGuard& ig,
                   const Msg& m, int self) const;
  [[nodiscard]] bool input_source_matches(const ir::InputGuard& ig,
                                          const ir::Store& home_store,
                                          std::uint8_t src) const;
  [[nodiscard]] bool full(const Channel& c) const {
    return c.size() >= static_cast<std::size_t>(cap_);
  }
  [[nodiscard]] const std::string& msg_name(ir::MsgId m) const {
    return protocol().message(m).name;
  }
  [[nodiscard]] std::uint8_t component_class(int c) const {
    return c == 0 ? kCompHome : c <= n_ ? kCompRemote
                            : c <= 2 * n_ ? kCompUp
                                          : kCompDown;
  }

  const refine::RefinedProtocol* refined_;
  int n_;
  int k_;    // home buffer capacity
  int cap_;  // channel capacity
};

// ---- the enumerator -------------------------------------------------------
// Templates, so each caller's visitor inlines into them: the simulator asks
// for one action per step, millions of times a second.

template <class Visit>
bool AsyncSystem::for_each_action(const State& s, Visit&& visit) const {
  for (int i = 0; i < n_; ++i)
    if (!s.up[i].empty() && !visit(up_delivery(s, i))) return false;
  for (int i = 0; i < n_; ++i)
    if (!s.down[i].empty() && !visit(down_delivery(s, i))) return false;
  if (!for_each_home_action(s, visit)) return false;
  for (int i = 0; i < n_; ++i)
    if (!for_each_remote_action(s, i, visit)) return false;
  return true;
}

inline Action AsyncSystem::up_delivery(const State& s, int i) const {
  Action a{.kind = Action::Kind::DeliverUp, .remote = u8(i)};
  const Msg& m = s.up[i].front();
  if (m.meta != Meta::Req) return a;
  // A request from the pending target is first an implicit nack (row T3),
  // so it is admitted as in the communication state.
  const HomeMachine& hm = s.home;
  const bool implicit_nack = hm.transient && hm.t_target == i;
  if (admit(hm, s, m, hm.transient && !implicit_nack))
    a.slot = u8(hm.buffer.size());
  else
    a.blocked = full(s.down[i]);  // the nack needs room
  return a;
}

template <class Visit>
bool AsyncSystem::for_each_home_action(const State& s, Visit&& visit) const {
  using K = Action::Kind;
  const HomeMachine& hm = s.home;
  if (hm.transient) return true;  // waiting for an ack/nack/reply

  if (hm.txn) {
    // An open bus transaction serializes the home: no taus, no other C1/C2
    // until it commits. Snoop the pending remotes one at a time, then apply
    // the recorded guard and ack the requester.
    const BusTxn& txn = *hm.txn;
    if (txn.snooping != BusTxn::kNoSnoop) return true;  // awaiting a SnoopAck
    if (!txn.pending.empty()) {
      const NodeId j = txn.pending.first();
      return visit(Action{
          .kind = K::BusSnoop, .target = j, .blocked = full(s.down[j])});
    }
    return visit(
        Action{.kind = K::BusCommit, .blocked = full(s.down[txn.src])});
  }

  const ir::State& st = protocol().home.state(hm.state);
  const ir::EvalCtx hctx{kHome};
  // τ moves (internal states, and autonomous decisions in comm states such
  // as the invalidate protocol's "copyset swept").
  for (std::size_t g = 0; g < st.taus.size(); ++g) {
    const auto& tau = st.taus[g];
    if (tau.cond && !ir::eval(*tau.cond, hm.store, hctx)) continue;
    if (!visit(Action{.kind = K::HomeTau, .guard = u8(g)})) return false;
  }
  if (st.kind != ir::StateKind::Comm) return true;

  // ---- row C1: complete a rendezvous from the buffer ----
  bool any_c1 = false;
  for (std::size_t b = 0; b < hm.buffer.size(); ++b) {
    const Msg& m = hm.buffer[b];
    for (std::size_t gi = 0; gi < st.inputs.size(); ++gi) {
      const ir::InputGuard& ig = st.inputs[gi];
      if (ig.msg != m.msg) continue;
      if (!input_source_matches(ig, hm.store, m.src)) continue;
      if (ig.cond && !ir::eval(*ig.cond, hm.store, hctx)) continue;
      any_c1 = true;
      const refine::MsgClass cls = refined_->cls(m.msg);
      // A broadcast opens a split bus transaction instead; a normal request
      // needs room for its ack.
      const bool bcast = cls == refine::MsgClass::Broadcast;
      const bool normal = cls == refine::MsgClass::Normal;
      if (!visit(Action{.kind = bcast ? K::BusOpen : K::HomeC1,
                        .slot = u8(b),
                        .guard = u8(gi),
                        .blocked = normal && full(s.down[m.src])}))
        return false;
    }
  }

  // ---- row C2: initiate a rendezvous (only when no buffered request can
  // complete one — condition (a); a capacity-blocked C1 counts) ----
  if (any_c1) return true;
  for (std::size_t gi = 0; gi < st.outputs.size(); ++gi) {
    const ir::OutputGuard& og = st.outputs[gi];
    if (og.cond && !ir::eval(*og.cond, hm.store, hctx)) continue;
    NodeSet targets;
    if (og.to.kind == ir::PeerSel::Kind::Expr) {
      std::int64_t j = ir::eval(*og.to.expr, hm.store, hctx);
      CCREF_ASSERT(j >= 0 && j < n_);
      targets.add(static_cast<NodeId>(j));
    } else if (og.to.kind == ir::PeerSel::Kind::AnyInSet) {
      targets = NodeSet(
          static_cast<std::uint64_t>(ir::eval(*og.to.expr, hm.store, hctx)));
    }
    const refine::MsgClass cls = refined_->cls(og.msg);
    for (NodeId ri : targets) {
      if (ri >= n_) continue;
      // Condition (c): a pending request from ri means ri is active and
      // cannot satisfy our request — sending would be wasted.
      bool pending = false;
      for (const auto& bm : hm.buffer)
        if (bm.src == ri) pending = true;
      if (pending) continue;
      Action a{.kind = K::HomeC2,
               .guard = u8(gi),
               .target = ri,
               .blocked = full(s.down[ri])};
      // A generic request allocates the ack buffer first (§3.2), nacking one
      // buffered request if the buffer is full (condition (a) already told
      // us none of them satisfies a rendezvous here). The fire-and-forget
      // reply of a fused pair needs no ack buffer. The victim is never ri
      // (condition (c)), so the two channel checks are independent.
      if (cls != refine::MsgClass::Reply && refined_->options.ack_buffer &&
          hm.buffer.size() >= static_cast<std::size_t>(k_)) {
        for (int v = static_cast<int>(hm.buffer.size()) - 1; v >= 0; --v)
          if (refined_->cls(hm.buffer[v].msg) != refine::MsgClass::ElideAck) {
            a.slot = u8(v);
            break;
          }
        if (a.slot == Action::kNone) continue;  // nothing nackable
        a.blocked = a.blocked || full(s.down[hm.buffer[a.slot].src]);
      }
      if (!visit(a)) return false;
    }
  }
  return true;
}

template <class Visit>
bool AsyncSystem::for_each_remote_action(const State& s, int i,
                                         Visit&& visit) const {
  using K = Action::Kind;
  const RemoteMachine& rm = s.remotes[i];
  const bool snoop = rm.buffer && rm.buffer->meta == Meta::Snoop;
  if (rm.transient && !snoop) return true;  // waiting for an ack/nack/reply
  const ir::State& st = protocol().remote.state(rm.state);
  const ir::EvalCtx rctx{i};
  const bool up_full = full(s.up[i]);

  if (snoop) {
    // A parked snoop is answered before anything else — even by a transient
    // remote (its active state's `bcast?` guards are exactly the snoops it
    // may consume while waiting for the bus). First enabled guard wins,
    // mirroring a rendezvous broadcast (sem::RendezvousSystem::apply); no
    // guard means the snoop is ignored.
    Action a{.kind = K::RemoteSnoop,
             .remote = u8(i),
             .guard = Action::kNone,
             .blocked = up_full};
    if (st.kind == ir::StateKind::Comm)
      for (std::size_t gi = 0; gi < st.inputs.size(); ++gi) {
        const ir::InputGuard& ig = st.inputs[gi];
        if (ig.msg != rm.buffer->msg ||
            ig.from.kind != ir::PeerSrc::Kind::Bcast)
          continue;
        if (ig.cond && !ir::eval(*ig.cond, rm.store, rctx)) continue;
        a.guard = u8(gi);
        break;
      }
    return visit(a);
  }

  // τ moves; the one-slot buffer rides along.
  for (std::size_t g = 0; g < st.taus.size(); ++g) {
    const auto& tau = st.taus[g];
    if (tau.cond && !ir::eval(*tau.cond, rm.store, rctx)) continue;
    if (!visit(Action{.kind = K::RemoteTau, .remote = u8(i), .guard = u8(g)}))
      return false;
  }
  if (st.kind != ir::StateKind::Comm) return true;

  if (!st.outputs.empty()) {
    // Active state (§2.4: exactly one output guard) — rows C1/C2 of Table 1.
    const ir::OutputGuard& og = st.outputs[0];
    if (og.cond && !ir::eval(*og.cond, rm.store, rctx)) return true;
    return visit(
        Action{.kind = K::RemoteSend, .remote = u8(i), .blocked = up_full});
  }

  // Passive state — row C3: answer the buffered request.
  if (!rm.buffer) return true;
  bool matched = false;
  for (std::size_t gi = 0; gi < st.inputs.size(); ++gi) {
    const ir::InputGuard& ig = st.inputs[gi];
    if (ig.msg != rm.buffer->msg) continue;
    // Stable bus states mix `h?` inputs with `bcast?` snoop guards; a
    // buffered point-to-point request only answers through the former.
    if (ig.from.kind != ir::PeerSrc::Kind::Home) continue;
    if (ig.cond && !ir::eval(*ig.cond, rm.store, rctx)) continue;
    matched = true;
    if (!visit(Action{.kind = K::RemoteC3Answer,
                      .remote = u8(i),
                      .guard = u8(gi),
                      .blocked = up_full}))
      return false;
  }
  // No guard satisfied: nack and keep waiting.
  if (!matched)
    return visit(
        Action{.kind = K::RemoteC3Nack, .remote = u8(i), .blocked = up_full});
  return true;
}

// ---- what an applied action changed ----------------------------------------
// Inline: the checkers ask once per edge.

inline ComponentSet AsyncSystem::touched(const Action& a,
                                         const SendLog& log) const {
  using K = Action::Kind;
  ComponentSet t;
  switch (a.kind) {
    case K::DeliverUp:
      t.add(0);
      t.add(static_cast<std::uint16_t>(1 + n_ + a.remote));
      break;
    case K::DeliverDown:
      t.add(static_cast<std::uint16_t>(1 + a.remote));
      t.add(static_cast<std::uint16_t>(1 + 2 * n_ + a.remote));
      break;
    case K::RemoteSnoop:
    case K::RemoteTau:
    case K::RemoteSend:
    case K::RemoteC3Answer:
    case K::RemoteC3Nack:
      t.add(static_cast<std::uint16_t>(1 + a.remote));
      break;
    case K::HomeTau:
    case K::HomeC1:
    case K::BusOpen:
    case K::BusSnoop:
    case K::BusCommit:
    case K::HomeC2:
      t.add(0);
      break;
  }
  for (int e = 0; e < log.count; ++e)
    t.add(static_cast<std::uint16_t>(1 + (log.e[e].up ? n_ : 2 * n_) +
                                     log.e[e].node));
  return t;
}

inline void AsyncSystem::restore(State& dst, const State& src,
                                 const ComponentSet& set) const {
  for (int k = 0; k < set.count; ++k) {
    const int c = set.id[k];
    if (c == 0)
      dst.home = src.home;
    else if (c <= n_)
      dst.remotes[c - 1] = src.remotes[c - 1];
    else if (c <= 2 * n_)
      dst.up[c - 1 - n_] = src.up[c - 1 - n_];
    else
      dst.down[c - 1 - 2 * n_] = src.down[c - 1 - 2 * n_];
  }
}

}  // namespace ccref::runtime

#include "runtime/async_system.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace ccref::runtime {

using ir::EvalCtx;
using ir::InputGuard;
using ir::OutputGuard;
using ir::PeerSrc;
using ir::StateKind;
using refine::MsgClass;
using sem::Label;
using sem::LabelMode;

namespace {

// Push `m` onto up[i] (to_home) or down[i] (to_remote), count it in the
// label's per-kind message totals (snoop traffic is bus control, not a
// message of the paper's metric), and log it for the simulator.
void send(Channel& c, bool up, int i, Msg m, Label& l, SendLog* log) {
  switch (m.meta) {
    case Meta::Req: ++l.sent_req; break;
    case Meta::Ack: ++l.sent_ack; break;
    case Meta::Nack: ++l.sent_nack; break;
    case Meta::Repl: ++l.sent_repl; break;
    case Meta::Snoop:
    case Meta::SnoopAck: break;
  }
  if (log) log->add(up, static_cast<std::uint8_t>(i), m.meta, m.msg);
  c.push(std::move(m));
}
// An ack, nack or snoop-ack: no payload, and `msg` only as a flag.
Msg control(Meta meta, std::uint8_t src, ir::MsgId msg = 0) {
  Msg m;
  m.meta = meta;
  m.msg = msg;
  m.src = src;
  return m;
}
void to_home(AsyncState& s, int i, Msg m, Label& l, SendLog* log) {
  send(s.up[i], true, i, std::move(m), l, log);
}
void to_remote(AsyncState& s, int i, Msg m, Label& l, SendLog* log) {
  send(s.down[i], false, i, std::move(m), l, log);
}
}  // namespace

AsyncSystem::AsyncSystem(const refine::RefinedProtocol& refined,
                         int num_remotes)
    : refined_(&refined),
      n_(num_remotes),
      k_(refined.options.home_buffer_capacity),
      cap_(refined.options.channel_capacity) {
  CCREF_REQUIRE(num_remotes >= 1 && num_remotes <= kMaxNodes);
}

AsyncState AsyncSystem::initial() const {
  const ir::Protocol& p = protocol();
  AsyncState s;
  s.home.state = p.home.initial;
  s.home.store = ir::Store(p.home.vars);
  s.remotes.resize(n_);
  for (auto& r : s.remotes) {
    r.state = p.remote.initial;
    r.store = ir::Store(p.remote.vars);
  }
  s.up.resize(n_);
  s.down.resize(n_);
  return s;
}

std::vector<std::pair<AsyncState, Label>> AsyncSystem::successors(
    const AsyncState& s, LabelMode mode) const {
  std::vector<std::pair<AsyncState, Label>> out;
  for_each_action(s, [&](const Action& a) {
    if (a.blocked) return true;
    auto& [next, label] = out.emplace_back(s, Label{});
    apply(next, a, mode, label);
    return true;
  });
  return out;
}

// ---- helpers ----------------------------------------------------------------

bool AsyncSystem::input_source_matches(const InputGuard& ig,
                                       const ir::Store& home_store,
                                       std::uint8_t src) const {
  switch (ig.from.kind) {
    case PeerSrc::Kind::Any:
      return src != Msg::kHomeSrc;
    case PeerSrc::Kind::Expr:
      return ir::eval(*ig.from.expr, home_store, EvalCtx{kHome}) == src;
    case PeerSrc::Kind::Home:
    case PeerSrc::Kind::Bcast:
      return false;  // only remote guards have Home/Bcast sources
  }
  return false;
}

bool AsyncSystem::satisfies_home_guard(const AsyncState& s, ir::StateId sid,
                                       const Msg& m) const {
  const ir::State& st = protocol().home.state(sid);
  if (st.kind != StateKind::Comm) return false;
  for (const auto& ig : st.inputs) {
    if (ig.msg != m.msg) continue;
    if (!input_source_matches(ig, s.home.store, m.src)) continue;
    if (ig.cond && !ir::eval(*ig.cond, s.home.store, EvalCtx{kHome})) continue;
    return true;
  }
  return false;
}

bool AsyncSystem::admit(const HomeMachine& hm, const AsyncState& s,
                        const Msg& m, bool in_transient) const {
  // Hand-design deviation: elide-ack messages must always be accepted — the
  // sender already committed its transition.
  if (refined_->cls(m.msg) == MsgClass::ElideAck) return true;

  const auto& opts = refined_->options;
  int free = k_ - static_cast<int>(hm.buffer.size());
  int reserved = (in_transient && opts.ack_buffer) ? 1 : 0;  // §3.2 ack buffer
  int avail = free - reserved;
  if (!opts.progress_buffer) return avail >= 1;
  if (avail >= 2) return true;                               // row T4
  if (avail == 1)                                            // row T5
    return satisfies_home_guard(s, hm.state, m);
  return false;                                              // row T6
}

std::vector<ir::Value> AsyncSystem::eval_payload(const OutputGuard& og,
                                                 const ir::Store& store,
                                                 int actor, int target) const {
  std::vector<ir::Value> payload;
  payload.reserve(og.payload.size());
  const EvalCtx ctx{actor};
  if (og.bind_peer != ir::kNoVar) {
    // The chosen target must be visible to payload expressions, but the live
    // store may not be mutated before the rendezvous completes (the request
    // can still be nacked and the §4 abstraction maps the transient state
    // back to the unmutated communication state).
    ir::Store scratch = store;
    scratch.set(og.bind_peer, static_cast<ir::Value>(target));
    for (const auto& e : og.payload)
      payload.push_back(static_cast<ir::Value>(ir::eval(*e, scratch, ctx)));
  } else {
    for (const auto& e : og.payload)
      payload.push_back(static_cast<ir::Value>(ir::eval(*e, store, ctx)));
  }
  return payload;
}

void AsyncSystem::apply_home_output(HomeMachine& hm, const OutputGuard& og,
                                    int target) const {
  if (og.bind_peer != ir::kNoVar)
    hm.store.set(og.bind_peer, static_cast<ir::Value>(target));
  if (og.action)
    ir::exec(*og.action, hm.store, protocol().home.vars, EvalCtx{kHome});
  hm.state = og.next;
  hm.transient = false;
}

void AsyncSystem::apply_input(const ir::Process& proc, ir::Store& store,
                              ir::StateId& state, const InputGuard& ig,
                              const Msg& m, int self) const {
  if (ig.bind_peer != ir::kNoVar)
    store.set(ig.bind_peer, static_cast<ir::Value>(m.src));
  for (std::size_t f = 0; f < ig.bind_payload.size(); ++f)
    if (ig.bind_payload[f] != ir::kNoVar)
      store.set(ig.bind_payload[f], m.payload[f]);
  if (ig.action) ir::exec(*ig.action, store, proc.vars, EvalCtx{self});
  state = ig.next;
}

// ---- apply ------------------------------------------------------------------

void AsyncSystem::apply(AsyncState& s, const Action& a, LabelMode mode,
                        Label& l, SendLog* log) const {
  using K = Action::Kind;
  l.reset();
  if (log) log->clear();
  const bool text = mode == LabelMode::Full;
  switch (a.kind) {
    case K::DeliverUp:
      return apply_up(s, a, text, l, log);
    case K::DeliverDown:
      return apply_down(s, a, text, l);
    case K::HomeTau:
    case K::HomeC1:
    case K::BusOpen:
    case K::BusSnoop:
    case K::BusCommit:
    case K::HomeC2:
      return apply_home(s, a, text, l, log);
    case K::RemoteSnoop:
    case K::RemoteTau:
    case K::RemoteSend:
    case K::RemoteC3Answer:
    case K::RemoteC3Nack:
      return apply_remote(s, a, text, l, log);
  }
}

// The LTL layer's weak-fairness constraints partition transitions by
// Label::actor, so deliveries need an owner. Both directions are charged to
// the *remote* of the channel: down-deliveries because the remote is the
// receiver, up-deliveries because weak fairness on them is how we encode
// reliable delivery of remote i's traffic — if they belonged to the home, a
// "fair" run could leave remote i's request in the channel forever and §6's
// per-node starvation would hold at every buffer size.

void AsyncSystem::apply_up(AsyncState& s, const Action& a, bool text,
                           Label& l, SendLog* log) const {
  const int i = a.remote;
  const ir::Process& home = protocol().home;
  HomeMachine& hm = s.home;
  l.actor = i;
  Msg m = std::move(s.up[i].q.front());
  s.up[i].pop();

  switch (m.meta) {
    case Meta::Ack: {
      // Row T1: the pending rendezvous succeeded.
      CCREF_ASSERT_MSG(hm.transient && hm.t_target == i,
                       "stray ACK at the home");
      const OutputGuard& og = home.state(hm.state).outputs[hm.t_guard];
      CCREF_ASSERT(refined_->cls(og.msg) != MsgClass::FusedRequest ||
                   !refined_->home_fusion_at(hm.state, hm.t_guard));
      apply_home_output(hm, og, i);
      if (text)
        l.text = strf("h T1: ack from r%d completes %s", i,
                      msg_name(og.msg).c_str());
      return;
    }
    case Meta::Nack:
      // Row T2: rendezvous failed; return to the communication state.
      CCREF_ASSERT_MSG(hm.transient && hm.t_target == i,
                       "stray NACK at the home");
      hm.transient = false;
      if (text) l.text = strf("h T2: nack from r%d", i);
      return;
    case Meta::Repl: {
      // Fused pair completion (§3.3): the reply acks the pending request and
      // carries the second rendezvous of the pair.
      CCREF_ASSERT_MSG(hm.transient && hm.t_target == i,
                       "stray REPL at the home");
      const auto* fusion = refined_->home_fusion_at(hm.state, hm.t_guard);
      CCREF_ASSERT_MSG(fusion && fusion->reply == m.msg,
                       "REPL does not match the pending fusion");
      apply_home_output(hm, home.state(hm.state).outputs[hm.t_guard], i);
      // Consume the reply in the successor state.
      bool applied = false;
      for (const auto& ig : home.state(hm.state).inputs) {
        if (ig.msg != m.msg) continue;
        if (!input_source_matches(ig, hm.store, m.src)) continue;
        if (ig.cond && !ir::eval(*ig.cond, hm.store, EvalCtx{kHome}))
          continue;
        apply_input(home, hm.store, hm.state, ig, m, kHome);
        applied = true;
        break;
      }
      CCREF_ASSERT_MSG(applied, "no guard consumed the fused reply");
      if (text)
        l.text = strf("h T1: repl %s from r%d completes fused pair",
                      msg_name(m.msg).c_str(), i);
      return;
    }
    case Meta::Snoop:
      CCREF_ASSERT_MSG(false, "SNOOP delivered to the home");
      return;
    case Meta::SnoopAck: {
      CCREF_ASSERT_MSG(hm.txn && hm.txn->snooping == i,
                       "stray SNOOPACK at the home");
      hm.txn->snooping = BusTxn::kNoSnoop;
      hm.txn->pending.remove(static_cast<NodeId>(i));
      bool purged = false;
      if (m.msg == 1) {
        // Answering the snoop cancelled r(i)'s own in-flight request. FIFO
        // order means that request reached the home before this SnoopAck:
        // purge it from the buffer if it was admitted (if it was nacked
        // instead, r(i) drops the stale nack on arrival).
        for (std::size_t b = 0; b < hm.buffer.size(); ++b) {
          if (hm.buffer[b].meta != Meta::Req || hm.buffer[b].src != i)
            continue;
          hm.buffer.erase(hm.buffer.begin() + b);
          purged = true;
          break;
        }
      }
      if (text)
        l.text = strf("h bus: snoop-ack from r%d%s%s", i,
                      m.msg == 1 ? " (cancelled own request)" : "",
                      purged ? ", purged it" : "");
      return;
    }
    case Meta::Req: {
      const bool buffered = a.slot != Action::kNone;
      const char* name = msg_name(m.msg).c_str();
      if (hm.transient && hm.t_target == i) {
        // Row T3 (rule R3): treat as an implicit nack plus a request. The
        // ack-buffer reservation guarantees space for this request; only
        // the ablation without it nacks.
        hm.transient = false;
        if (text)
          l.text = buffered
                       ? strf("h T3: implicit nack; buffered %s from r%d",
                              name, i)
                       : strf("h T3: implicit nack; nacked %s from r%d "
                              "(no space)",
                              name, i);
      } else if (text) {
        // Rows T4/T5/T6 (and the analogous communication-state admission).
        l.text = buffered ? strf("h buffer: %s from r%d", name, i)
                          : strf("h T6: nack %s from r%d", name, i);
      }
      if (buffered)
        hm.buffer.push_back(std::move(m));
      else
        to_remote(s, i, control(Meta::Nack, Msg::kHomeSrc), l, log);
      return;
    }
  }
}

void AsyncSystem::apply_down(AsyncState& s, const Action& a, bool text,
                             Label& l) const {
  const int i = a.remote;
  const ir::Process& remote = protocol().remote;
  RemoteMachine& rm = s.remotes[i];
  l.actor = i;
  Msg m = std::move(s.down[i].q.front());
  s.down[i].pop();

  if (m.meta == Meta::Snoop) {
    // A snoop parks in the one-slot buffer and is answered with priority
    // among the remote's actions.
    // The home never snoops a remote with an unresolved point-to-point
    // request, so the slot is free.
    CCREF_ASSERT_MSG(!rm.buffer.has_value(),
                     "snoop arrived while a request was buffered");
    if (text)
      l.text = strf("r%d buffer: snoop %s(r%d)", i, msg_name(m.msg).c_str(),
                    m.src);
    rm.buffer = std::move(m);
    return;
  }

  if (rm.transient) {
    const OutputGuard& og = remote.state(rm.state).outputs[0];
    switch (m.meta) {
      case Meta::Ack:
        // Row T1.
        CCREF_ASSERT_MSG(!refined_->remote_fusion_at(rm.state),
                         "ACK for a fused request");
        if (og.action)
          ir::exec(*og.action, rm.store, remote.vars, EvalCtx{i});
        rm.state = og.next;
        rm.transient = false;
        if (text)
          l.text = strf("r%d T1: ack completes %s", i,
                        msg_name(og.msg).c_str());
        return;
      case Meta::Nack:
        // Row T2: go back and retransmit (the active send re-enables).
        rm.transient = false;
        if (text) l.text = strf("r%d T2: nack; will retry", i);
        return;
      case Meta::Repl: {
        const auto* fusion = refined_->remote_fusion_at(rm.state);
        CCREF_ASSERT_MSG(fusion && fusion->reply == m.msg,
                         "REPL does not match the remote fusion");
        if (og.action)
          ir::exec(*og.action, rm.store, remote.vars, EvalCtx{i});
        rm.state = og.next;  // W
        apply_input(remote, rm.store, rm.state,
                    remote.state(fusion->wait_state).inputs[0], m, i);
        rm.transient = false;
        if (text)
          l.text = strf("r%d T1: repl %s completes fused pair", i,
                        msg_name(m.msg).c_str());
        return;
      }
      case Meta::Req:
        // Row T3: the remote knows the home will treat its own pending
        // request as an implicit nack, so this request is simply dropped.
        if (text)
          l.text = strf("r%d T3: ignore %s from home", i,
                        msg_name(m.msg).c_str());
        return;
      case Meta::Snoop:
      case Meta::SnoopAck:
        CCREF_ASSERT_MSG(false, "unreachable meta at a transient remote");
        return;
    }
    return;
  }

  if (m.meta == Meta::Nack && protocol().topology == ir::Topology::Bus) {
    // Stale nack: the remote's request was rejected after the remote had
    // already cancelled it by answering a snoop. Drop it.
    if (text) l.text = strf("r%d: drop stale nack", i);
    return;
  }

  // Not transient: only requests can arrive; hold in the one-slot buffer.
  CCREF_ASSERT_MSG(m.meta == Meta::Req, "non-request at an idle remote");
  CCREF_ASSERT_MSG(!rm.buffer.has_value(),
                   "home sent two outstanding requests to one remote");
  if (text)
    l.text = strf("r%d buffer: %s from home", i, msg_name(m.msg).c_str());
  rm.buffer = std::move(m);
}

void AsyncSystem::apply_home(AsyncState& s, const Action& a, bool text,
                             Label& l, SendLog* log) const {
  const ir::Process& home = protocol().home;
  HomeMachine& hm = s.home;
  const ir::State& st = home.state(hm.state);
  l.actor = kHome;

  switch (a.kind) {
    case Action::Kind::HomeTau: {
      const auto& g = st.taus[a.guard];
      if (g.action) ir::exec(*g.action, hm.store, home.vars, EvalCtx{kHome});
      hm.state = g.next;
      if (text)
        l.text = strf("h: tau %s", g.label.empty() ? "-" : g.label.c_str());
      l.decision = g.label;
      return;
    }
    case Action::Kind::HomeC1: {
      // Row C1: complete a rendezvous from the buffer.
      const Msg m = std::move(hm.buffer[a.slot]);
      hm.buffer.erase(hm.buffer.begin() + a.slot);
      const MsgClass cls = refined_->cls(m.msg);
      if (cls == MsgClass::Normal) {
        to_remote(s, m.src, control(Meta::Ack, Msg::kHomeSrc), l,
                  log);
        l.completes_rendezvous = true;
        l.granted_to = m.src;
      } else if (cls == MsgClass::FusedRequest) {
        // §3.3: no ack — the later reply acts as the ack.
        l.completes_rendezvous = true;
        l.granted_to = m.src;
      } else {
        // ElideAck: the sender already committed at send time.
        CCREF_ASSERT(cls == MsgClass::ElideAck);
      }
      apply_input(home, hm.store, hm.state, st.inputs[a.guard], m, kHome);
      if (text)
        l.text = strf("h C1: %s %s from r%d",
                      cls == MsgClass::Normal ? "ack" : "consume",
                      msg_name(m.msg).c_str(), m.src);
      return;
    }
    case Action::Kind::BusOpen: {
      // Open a split bus transaction instead of completing on the spot: the
      // guard is recorded and applied only after every other remote has
      // been snooped.
      Msg m = std::move(hm.buffer[a.slot]);
      hm.buffer.erase(hm.buffer.begin() + a.slot);
      if (text)
        l.text = strf("h bus: open %s from r%d", msg_name(m.msg).c_str(),
                      m.src);
      BusTxn& txn = hm.txn.emplace();
      txn.src = m.src;
      txn.guard = a.guard;
      txn.msg = m.msg;
      txn.pending = NodeSet::all(n_);
      txn.pending.remove(m.src);
      txn.payload = std::move(m.payload);
      return;
    }
    case Action::Kind::BusSnoop: {
      BusTxn& txn = *hm.txn;
      // Snoop guards bind the original requester.
      to_remote(s, a.target,
                {.meta = Meta::Snoop,
                 .msg = txn.msg,
                 .src = txn.src,
                 .payload = txn.payload},
                l, log);
      txn.snooping = a.target;
      if (text)
        l.text = strf("h bus: snoop %s(r%d) -> r%d",
                      msg_name(txn.msg).c_str(), txn.src, a.target);
      return;
    }
    case Action::Kind::BusCommit: {
      // Every other remote has answered: commit. The home store is untouched
      // since the open (the transaction blocks every store-writing home
      // step), so the guard condition checked at open still holds.
      BusTxn txn = std::move(*hm.txn);
      hm.txn.reset();
      to_remote(s, txn.src, control(Meta::Ack, Msg::kHomeSrc), l,
                log);
      const Msg taken{.meta = Meta::Req,
                      .msg = txn.msg,
                      .src = txn.src,
                      .payload = std::move(txn.payload)};
      apply_input(home, hm.store, hm.state, st.inputs[txn.guard], taken,
                  kHome);
      l.completes_rendezvous = true;
      l.granted_to = taken.src;
      l.decision = msg_name(taken.msg);
      if (text)
        l.text = strf("h bus: commit %s from r%d", l.decision.c_str(),
                      taken.src);
      return;
    }
    case Action::Kind::HomeC2: {
      // Row C2: initiate a rendezvous.
      const OutputGuard& og = st.outputs[a.guard];
      const int ri = a.target;
      l.decision = msg_name(og.msg);
      if (refined_->cls(og.msg) == MsgClass::Reply) {
        // Fire-and-forget reply of a fused pair: the §3.3 conditions
        // guarantee the remote is waiting, so no ack and no transient.
        to_remote(s, ri,
                  {.meta = Meta::Repl,
                   .msg = og.msg,
                   .src = Msg::kHomeSrc,
                   .payload = eval_payload(og, hm.store, kHome, ri)},
                  l, log);
        apply_home_output(hm, og, ri);
        l.completes_rendezvous = true;
        l.granted_to = kHome;
        if (text)
          l.text = strf("h C2: repl %s -> r%d", l.decision.c_str(), ri);
        return;
      }
      if (a.slot != Action::kNone) {
        // Free the ack buffer (§3.2) by nacking a buffered request.
        const std::uint8_t victim = hm.buffer[a.slot].src;
        hm.buffer.erase(hm.buffer.begin() + a.slot);
        to_remote(s, victim, control(Meta::Nack, Msg::kHomeSrc), l,
                  log);
      }
      to_remote(s, ri,
                {.meta = Meta::Req,
                 .msg = og.msg,
                 .src = Msg::kHomeSrc,
                 .payload = eval_payload(og, hm.store, kHome, ri)},
                l, log);
      hm.transient = true;
      hm.t_guard = a.guard;
      hm.t_target = a.target;
      if (text)
        l.text = strf("h C2: request %s -> r%d", l.decision.c_str(), ri);
      return;
    }
    default:
      CCREF_ASSERT_MSG(false, "not a home action");
  }
}

void AsyncSystem::apply_remote(AsyncState& s, const Action& a, bool text,
                               Label& l, SendLog* log) const {
  const int i = a.remote;
  const auto self = static_cast<std::uint8_t>(i);
  const ir::Process& remote = protocol().remote;
  RemoteMachine& rm = s.remotes[i];
  const ir::State& st = remote.state(rm.state);
  const EvalCtx rctx{i};
  l.actor = i;

  switch (a.kind) {
    case Action::Kind::RemoteSnoop: {
      const Msg m = std::move(*rm.buffer);
      rm.buffer.reset();
      const bool hit = a.guard != Action::kNone;
      const bool cancelled = hit && rm.transient;
      if (hit) {
        apply_input(remote, rm.store, rm.state, st.inputs[a.guard], m, i);
        rm.transient = false;
      }
      // The SnoopAck's msg flags that the remote's own in-flight request
      // was cancelled.
      to_home(s, i,
              control(Meta::SnoopAck, self, static_cast<ir::MsgId>(cancelled)),
              l, log);
      if (text)
        l.text = strf("r%d: snoop %s(r%d) %s", i, msg_name(m.msg).c_str(),
                      m.src,
                      cancelled ? "applied, cancelling own request"
                      : hit     ? "applied"
                                : "ignored");
      return;
    }
    case Action::Kind::RemoteTau: {
      const auto& g = st.taus[a.guard];
      if (g.action) ir::exec(*g.action, rm.store, remote.vars, rctx);
      rm.state = g.next;
      if (text)
        l.text =
            strf("r%d: tau %s", i, g.label.empty() ? "-" : g.label.c_str());
      l.decision = g.label;
      return;
    }
    case Action::Kind::RemoteSend: {
      const OutputGuard& og = st.outputs[0];
      // Row C2: a buffered request from the home is deleted; the home will
      // interpret our request as an implicit nack for it (rule R3).
      const bool deleted = rm.buffer.has_value();
      rm.buffer.reset();
      l.decision = msg_name(og.msg);
      to_home(s, i,
              {.meta = Meta::Req,
               .msg = og.msg,
               .src = self,
               .payload = eval_payload(og, rm.store, i, kHome)},
              l, log);
      if (refined_->cls(og.msg) == MsgClass::ElideAck) {
        // Hand-design deviation: send and commit immediately, no handshake.
        if (og.action) ir::exec(*og.action, rm.store, remote.vars, rctx);
        rm.state = og.next;
        l.completes_rendezvous = true;
        l.granted_to = i;
        if (text)
          l.text = strf("r%d: send %s (no ack)%s", i, l.decision.c_str(),
                        deleted ? ", dropped buffered request" : "");
      } else {
        rm.transient = true;
        if (text)
          l.text = strf("r%d C%d: request %s", i, deleted ? 2 : 1,
                        l.decision.c_str());
      }
      return;
    }
    case Action::Kind::RemoteC3Answer: {
      // Row C3: answer the buffered request.
      const Msg m = std::move(*rm.buffer);
      rm.buffer.reset();
      const InputGuard& ig = st.inputs[a.guard];
      if (refined_->cls(m.msg) == MsgClass::FusedRequest &&
          refined_->remote_replies_through(ig)) {
        // §3.3 reverse direction: apply the input, then immediately answer
        // with the reply — it doubles as the ack.
        apply_input(remote, rm.store, rm.state, ig, m, i);
        const OutputGuard& og = remote.state(rm.state).outputs[0];
        to_home(s, i,
                {.meta = Meta::Repl,
                 .msg = og.msg,
                 .src = self,
                 .payload = eval_payload(og, rm.store, i, kHome)},
                l, log);
        if (og.action) ir::exec(*og.action, rm.store, remote.vars, rctx);
        rm.state = og.next;
        if (text)
          l.text = strf("r%d C3: %s answered with repl %s", i,
                        msg_name(m.msg).c_str(), msg_name(og.msg).c_str());
      } else {
        to_home(s, i, control(Meta::Ack, self), l, log);
        apply_input(remote, rm.store, rm.state, ig, m, i);
        if (text)
          l.text = strf("r%d C3: ack %s", i, msg_name(m.msg).c_str());
      }
      l.completes_rendezvous = true;
      l.granted_to = kHome;
      return;
    }
    case Action::Kind::RemoteC3Nack:
      // Row C3, no guard satisfied: nack and keep waiting.
      if (text)
        l.text = strf("r%d C3: nack %s", i, msg_name(rm.buffer->msg).c_str());
      rm.buffer.reset();
      to_home(s, i, control(Meta::Nack, self), l, log);
      return;
    default:
      CCREF_ASSERT_MSG(false, "not a remote action");
  }
}

// ---- encode / decode / describe ------------------------------------------------

// The codec is written once, per component; encode() and decode_into() loop
// over it. `flatten` inlines every call below these three entry points —
// the component dispatch and the sink's byte writes — which keeps the loops
// as fast as one straight-line encoder (measured 2x slower without it).

[[gnu::flatten]] void AsyncSystem::encode(const AsyncState& s,
                                          ByteSink& sink) const {
  for (int c = 0; c < num_components(); ++c) encode_component(s, c, sink);
}

[[gnu::flatten]] void AsyncSystem::encode_component(const AsyncState& s,
                                                    int c,
                                                    ByteSink& sink) const {
  if (c == 0) {
    const HomeMachine& h = s.home;
    sink.u8(h.transient ? 1 : 0);
    sink.varint(h.state);
    sink.u8(h.t_guard);
    sink.u8(h.t_target);
    h.store.encode(sink);
    sink.u8(static_cast<std::uint8_t>(h.buffer.size()));
    for (const Msg& m : h.buffer) m.encode(sink);
    sink.u8(h.txn.has_value() ? 1 : 0);
    if (h.txn) {
      const BusTxn& t = *h.txn;
      sink.u8(t.src);
      sink.u8(t.guard);
      sink.u8(t.msg);
      sink.u8(t.snooping);
      sink.varint(t.pending.bits());
      sink.u8(static_cast<std::uint8_t>(t.payload.size()));
      for (ir::Value v : t.payload) sink.varint(v);
    }
  } else if (c <= n_) {
    const RemoteMachine& r = s.remotes[c - 1];
    sink.u8(r.transient ? 1 : 0);
    sink.varint(r.state);
    r.store.encode(sink);
    sink.u8(r.buffer.has_value() ? 1 : 0);
    if (r.buffer) r.buffer->encode(sink);
  } else if (c <= 2 * n_) {
    s.up[c - 1 - n_].encode(sink);
  } else {
    s.down[c - 1 - 2 * n_].encode(sink);
  }
  sink.boundary(component_class(c));
}

AsyncState AsyncSystem::decode(ByteSource& src) const {
  AsyncState s;
  decode_into(src, s);
  return s;
}

[[gnu::flatten]] void AsyncSystem::decode_into(
    ByteSource& src, AsyncState& s, std::vector<ComponentMark>* marks) const {
  // Every field is overwritten; vectors resize in place and the optionals
  // engage or reset, so a target that held any state (of this system)
  // decodes to exactly what decode() would build.
  s.remotes.resize(n_);
  s.up.resize(n_);
  s.down.resize(n_);
  if (marks) marks->clear();
  for (int c = 0; c < num_components(); ++c) {
    decode_component(src, s, c);
    if (marks)
      marks->push_back({static_cast<std::uint32_t>(src.position()),
                        component_class(c)});
  }
}

void AsyncSystem::decode_component(ByteSource& src, AsyncState& s,
                                   int c) const {
  const ir::Protocol& p = protocol();
  auto sized = [](ir::Store& store, const auto& vars) {
    if (store.size() != vars.size()) store = ir::Store(vars);
  };
  if (c == 0) {
    HomeMachine& h = s.home;
    h.transient = src.u8() != 0;
    h.state = static_cast<ir::StateId>(src.varint());
    h.t_guard = src.u8();
    h.t_target = src.u8();
    sized(h.store, p.home.vars);
    h.store.decode(src);
    h.buffer.resize(src.u8());
    for (Msg& m : h.buffer) m.decode_into(src);
    if (src.u8()) {
      BusTxn& t = h.txn ? *h.txn : h.txn.emplace();
      t.src = src.u8();
      t.guard = src.u8();
      t.msg = src.u8();
      t.snooping = src.u8();
      t.pending = NodeSet(src.varint());
      t.payload.resize(src.u8());
      for (ir::Value& v : t.payload) v = src.varint();
    } else {
      h.txn.reset();
    }
  } else if (c <= n_) {
    RemoteMachine& r = s.remotes[c - 1];
    r.transient = src.u8() != 0;
    r.state = static_cast<ir::StateId>(src.varint());
    sized(r.store, p.remote.vars);
    r.store.decode(src);
    if (src.u8())
      (r.buffer ? *r.buffer : r.buffer.emplace()).decode_into(src);
    else
      r.buffer.reset();
  } else if (c <= 2 * n_) {
    s.up[c - 1 - n_].decode_into(src);
  } else {
    s.down[c - 1 - 2 * n_].decode_into(src);
  }
}

std::string AsyncSystem::describe(const AsyncState& s) const {
  const ir::Protocol& p = protocol();
  auto msg_str = [&](const Msg& m) {
    std::string out = to_string(m.meta);
    if (m.meta == Meta::Req || m.meta == Meta::Repl ||
        m.meta == Meta::Snoop)
      out += "." + p.message(m.msg).name;
    if (m.meta == Meta::SnoopAck && m.msg == 1) out += ".cancel";
    out += m.src == Msg::kHomeSrc ? "<h" : strf("<r%d", m.src);
    return out;
  };
  std::string out = "h=" + p.home.state(s.home.state).name;
  if (s.home.transient)
    out += strf("*[g%d->r%d]", s.home.t_guard, s.home.t_target);
  out += "(";
  for (std::size_t v = 0; v < p.home.vars.size(); ++v) {
    if (v) out += ",";
    out += strf("%s=%llu", p.home.vars[v].name.c_str(),
                static_cast<unsigned long long>(
                    s.home.store.get(static_cast<ir::VarId>(v))));
  }
  out += ") buf[";
  for (std::size_t b = 0; b < s.home.buffer.size(); ++b) {
    if (b) out += " ";
    out += msg_str(s.home.buffer[b]);
  }
  out += "]";
  if (s.home.txn) {
    const BusTxn& t = *s.home.txn;
    out += strf(" txn[%s<r%d pend=%llx", p.message(t.msg).name.c_str(),
                t.src, static_cast<unsigned long long>(t.pending.bits()));
    if (t.snooping != BusTxn::kNoSnoop) out += strf(" snooping=r%d", t.snooping);
    out += "]";
  }
  for (int i = 0; i < n_; ++i) {
    const auto& r = s.remotes[i];
    out += strf(" r%d=%s%s", i, p.remote.state(r.state).name.c_str(),
                r.transient ? "*" : "");
    if (r.buffer) out += "[" + msg_str(*r.buffer) + "]";
  }
  for (int i = 0; i < n_; ++i) {
    if (!s.up[i].empty()) {
      out += strf(" up%d:", i);
      for (const Msg& m : s.up[i].q) out += " " + msg_str(m);
    }
    if (!s.down[i].empty()) {
      out += strf(" down%d:", i);
      for (const Msg& m : s.down[i].q) out += " " + msg_str(m);
    }
  }
  return out;
}

// ---- symmetry ------------------------------------------------------------------

void AsyncSystem::permute(AsyncState& s, const ir::NodePerm& perm) const {
  CCREF_REQUIRE(perm.size() == static_cast<std::size_t>(n_));
  const ir::Protocol& p = protocol();

  auto reorder = [&](auto& vec) {
    std::remove_reference_t<decltype(vec)> out(n_);
    for (int i = 0; i < n_; ++i) out[perm[i]] = std::move(vec[i]);
    vec = std::move(out);
  };
  reorder(s.remotes);
  reorder(s.up);
  reorder(s.down);

  auto remap_msg = [&](Msg& m) {
    if (m.src != Msg::kHomeSrc && m.src < n_) m.src = perm[m.src];
    if (m.meta != Meta::Req && m.meta != Meta::Repl &&
        m.meta != Meta::Snoop)
      return;
    const auto& types = p.message(m.msg).payload;
    for (std::size_t f = 0; f < m.payload.size() && f < types.size(); ++f)
      m.payload[f] = ir::remap_value(types[f], m.payload[f], perm);
  };

  ir::remap_store(s.home.store, p.home.vars, perm);
  // The transient target is remapped even when the home is back in a stable
  // state: the stale value is still part of the encoding, and a group action
  // must rename it consistently or two permutations of one state would stop
  // being equal.
  if (s.home.t_target < n_) s.home.t_target = perm[s.home.t_target];
  if (s.home.txn) {
    BusTxn& t = *s.home.txn;
    if (t.src < n_) t.src = perm[t.src];
    if (t.snooping != BusTxn::kNoSnoop && t.snooping < n_)
      t.snooping = perm[t.snooping];
    t.pending = NodeSet(static_cast<std::uint64_t>(ir::remap_value(
        ir::Type::NodeSet, static_cast<ir::Value>(t.pending.bits()), perm)));
    const auto& types = p.message(t.msg).payload;
    for (std::size_t f = 0; f < t.payload.size() && f < types.size(); ++f)
      t.payload[f] = ir::remap_value(types[f], t.payload[f], perm);
  }
  for (Msg& m : s.home.buffer) remap_msg(m);
  for (auto& r : s.remotes) {
    ir::remap_store(r.store, p.remote.vars, perm);
    if (r.buffer) remap_msg(*r.buffer);
  }
  for (auto& c : s.up)
    for (Msg& m : c.q) remap_msg(m);
  for (auto& c : s.down)
    for (Msg& m : c.q) remap_msg(m);
}

void AsyncSystem::canonicalize(AsyncState& s) const {
  if (n_ <= 1) return;
  const ir::Protocol& p = protocol();
  const auto& hvars = p.home.vars;
  const auto& rvars = p.remote.vars;

  // Per-remote signature: the remote machine, its two channels, and the
  // home's view of it (Node/NodeSet references, pending transient target,
  // which buffer slots hold its requests) — each fact written so that two
  // interchangeable remotes produce byte-identical signatures. Node values
  // naming *other* remotes stay raw: sound, but only partially canonical
  // for protocols with cross-remote references (the shipped ones have none).
  ByteSink sink;
  auto sig_value = [&](ir::Type t, ir::Value val, int self) {
    switch (t) {
      case ir::Type::Node:
        sink.varint(val == static_cast<ir::Value>(self)
                        ? static_cast<ir::Value>(n_)
                        : val);
        break;
      case ir::Type::NodeSet:
        sink.u8((val >> self) & 1u);
        sink.varint(val & ~(ir::Value{1} << self));
        break;
      default:
        sink.varint(val);
    }
  };
  auto sig_msg = [&](const Msg& m, int self) {
    sink.u8(static_cast<std::uint8_t>(m.meta));
    sink.u8(m.msg);
    // 0xfe tags "sent by this remote": raw src values are node ids < 64.
    sink.u8(m.src == static_cast<std::uint8_t>(self) ? 0xfe : m.src);
    if (m.meta != Meta::Req && m.meta != Meta::Repl &&
        m.meta != Meta::Snoop)
      return;
    const auto& types = p.message(m.msg).payload;
    for (std::size_t f = 0; f < m.payload.size(); ++f)
      sig_value(f < types.size() ? types[f] : ir::Type::Int, m.payload[f],
                self);
  };

  std::vector<std::vector<std::byte>> sig(n_);
  for (int i = 0; i < n_; ++i) {
    sink.clear();
    const RemoteMachine& r = s.remotes[i];
    sink.u8(r.transient ? 1 : 0);
    sink.varint(r.state);
    for (std::size_t v = 0; v < rvars.size(); ++v)
      sig_value(rvars[v].type, r.store.get(static_cast<ir::VarId>(v)), i);
    sink.u8(r.buffer.has_value() ? 1 : 0);
    if (r.buffer) sig_msg(*r.buffer, i);
    for (const Channel* c : {&s.up[i], &s.down[i]}) {
      sink.u8(static_cast<std::uint8_t>(c->size()));
      for (const Msg& m : c->q) sig_msg(m, i);
    }
    for (std::size_t v = 0; v < hvars.size(); ++v) {
      const ir::Value val = s.home.store.get(static_cast<ir::VarId>(v));
      if (hvars[v].type == ir::Type::Node)
        sink.u8(val == static_cast<ir::Value>(i) ? 1 : 0);
      else if (hvars[v].type == ir::Type::NodeSet)
        sink.u8((val >> i) & 1u);
    }
    sink.u8(s.home.t_target == static_cast<std::uint8_t>(i) ? 1 : 0);
    if (s.home.txn) {
      const BusTxn& t = *s.home.txn;
      sink.u8(t.src == static_cast<std::uint8_t>(i) ? 1 : 0);
      sink.u8(t.snooping == static_cast<std::uint8_t>(i) ? 1 : 0);
      sink.u8(t.pending.contains(static_cast<NodeId>(i)) ? 1 : 0);
      const auto& types = p.message(t.msg).payload;
      for (std::size_t f = 0; f < t.payload.size(); ++f)
        sig_value(f < types.size() ? types[f] : ir::Type::Int, t.payload[f],
                  i);
    }
    for (const Msg& m : s.home.buffer)
      sink.u8(m.src == static_cast<std::uint8_t>(i) ? 1 : 0);
    sig[i] = std::vector<std::byte>(sink.bytes().begin(), sink.bytes().end());
  }

  std::vector<int> order(n_);
  for (int i = 0; i < n_; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return sig[a] != sig[b] ? sig[a] < sig[b] : a < b;
  });

  ir::NodePerm perm(n_);
  for (int pos = 0; pos < n_; ++pos)
    perm[order[pos]] = static_cast<std::uint8_t>(pos);
  if (!ir::is_identity(perm)) permute(s, perm);
}

}  // namespace ccref::runtime

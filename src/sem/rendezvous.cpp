#include "sem/rendezvous.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace ccref::sem {

using ir::EvalCtx;
using ir::InputGuard;
using ir::OutputGuard;
using ir::PeerSel;
using ir::PeerSrc;
using ir::StateKind;

RendezvousSystem::RendezvousSystem(const ir::Protocol& protocol,
                                   int num_remotes)
    : protocol_(&protocol), n_(num_remotes) {
  CCREF_REQUIRE(num_remotes >= 1 && num_remotes <= kMaxNodes);
}

RvState RendezvousSystem::initial() const {
  RvState s;
  s.home.state = protocol_->home.initial;
  s.home.store = ir::Store(protocol_->home.vars);
  s.remotes.resize(n_);
  for (auto& r : s.remotes) {
    r.state = protocol_->remote.initial;
    r.store = ir::Store(protocol_->remote.vars);
  }
  return s;
}

std::vector<std::pair<RvState, Label>> RendezvousSystem::successors(
    const RvState& s, LabelMode mode) const {
  std::vector<std::pair<RvState, Label>> out;
  for_each_action(s, [&](const RvAction& a) {
    auto& [next, label] = out.emplace_back(s, Label{});
    apply(next, a, mode, label);
    return true;
  });
  return out;
}

void RendezvousSystem::apply(RvState& s, const RvAction& a, LabelMode mode,
                             Label& l, Log*) const {
  l.reset();
  const bool text = mode == LabelMode::Full;
  switch (a.kind) {
    case RvAction::Kind::Tau: return apply_tau(s, a, text, l);
    case RvAction::Kind::Sync: return apply_sync(s, a, text, l);
    case RvAction::Kind::Bcast: return apply_bcast(s, a, text, l);
  }
}

void RendezvousSystem::apply_tau(RvState& s, const RvAction& a, bool text,
                                 Label& l) const {
  const ir::Process& p = a.actor < 0 ? protocol_->home : protocol_->remote;
  ProcState& ps = proc(s, a.actor + 1);
  const ir::TauGuard& g = p.state(ps.state).taus[a.out];
  if (g.action) ir::exec(*g.action, ps.store, p.vars, EvalCtx{a.actor});
  ps.state = g.next;
  if (text)
    l.text = strf("%s: tau %s", a.actor < 0 ? "h" : strf("r%d", a.actor).c_str(),
                  g.label.empty() ? "-" : g.label.c_str());
  l.actor = a.actor;
  l.decision = g.label;
}

void RendezvousSystem::apply_bcast(RvState& s, const RvAction& a, bool text,
                                   Label& l) const {
  const int i = a.actor;
  ProcState& req = s.remotes[i];
  const OutputGuard& og =
      protocol_->remote.state(req.state).outputs[a.out];
  const InputGuard& hg = protocol_->home.state(s.home.state).inputs[a.in];
  const EvalCtx actx{i};

  // The payload is read from the requester's pre-action store, which no
  // delivery below changes: every participant observes the same values
  // (the bus carries one datum).
  auto deliver = [&](const InputGuard& ig, ProcState& p, const EvalCtx& ctx,
                     const ir::Process& proc) {
    if (ig.bind_peer != ir::kNoVar)
      p.store.set(ig.bind_peer, static_cast<ir::Value>(i));
    for (std::size_t f = 0; f < ig.bind_payload.size(); ++f)
      if (ig.bind_payload[f] != ir::kNoVar)
        p.store.set(ig.bind_payload[f],
                    static_cast<ir::Value>(
                        ir::eval(*og.payload[f], req.store, actx)));
    if (ig.action) ir::exec(*ig.action, p.store, proc.vars, ctx);
    p.state = ig.next;
  };

  // The home mediates: its generalized input participates like a star sync.
  deliver(hg, s.home, EvalCtx{-1}, protocol_->home);

  // Every other remote snoops through its first enabled bcast guard; a
  // remote with none (wrong state, or guard condition false) is unchanged —
  // a cache in I ignores bus traffic it misses on. Guard conditions are
  // evaluated against the pre-bind store, matching every other guard kind.
  for (int j = 0; j < n_; ++j) {
    if (j == i) continue;
    ProcState& snooper = s.remotes[j];
    const ir::State& js = protocol_->remote.state(snooper.state);
    if (js.kind != StateKind::Comm) continue;
    const EvalCtx jctx{j};
    for (const auto& ig : js.inputs) {
      if (ig.msg != og.msg || ig.from.kind != PeerSrc::Kind::Bcast) continue;
      if (ig.cond && !ir::eval(*ig.cond, snooper.store, jctx)) continue;
      deliver(ig, snooper, jctx, protocol_->remote);
      break;  // first enabled snoop guard wins (deterministic per snooper)
    }
  }

  // Requester last: its action may read vars the payload already captured.
  if (og.action) ir::exec(*og.action, req.store, protocol_->remote.vars, actx);
  req.state = og.next;

  if (text)
    l.text = strf("r%d!%s -> *", i, protocol_->message(og.msg).name.c_str());
  l.completes_rendezvous = true;
  l.actor = i;
  l.granted_to = i;
  l.decision = protocol_->message(og.msg).name;
}

void RendezvousSystem::apply_sync(RvState& s, const RvAction& a, bool text,
                                  Label& l) const {
  const int active = a.actor;
  const int passive = a.partner;
  const ir::Process& ap = active < 0 ? protocol_->home : protocol_->remote;
  const ir::Process& pp = passive < 0 ? protocol_->home : protocol_->remote;
  ProcState& as = proc(s, active + 1);
  ProcState& ps = proc(s, passive + 1);
  const OutputGuard& og = ap.state(as.state).outputs[a.out];
  const InputGuard& ig = pp.state(ps.state).inputs[a.in];
  const EvalCtx actx{active};
  const EvalCtx pctx{passive};

  // The chosen target becomes visible to the active side's payload and
  // action (e.g. `o := j` after picking j from a copyset).
  if (og.bind_peer != ir::kNoVar)
    as.store.set(og.bind_peer, static_cast<ir::Value>(passive));

  // Passive side: learn the sender, bind the payload (evaluated in the
  // active store, which binding does not change), run the action.
  if (ig.bind_peer != ir::kNoVar)
    ps.store.set(ig.bind_peer, static_cast<ir::Value>(active));
  for (std::size_t f = 0; f < ig.bind_payload.size(); ++f)
    if (ig.bind_payload[f] != ir::kNoVar)
      ps.store.set(ig.bind_payload[f],
                   static_cast<ir::Value>(
                       ir::eval(*og.payload[f], as.store, actx)));

  if (og.action) ir::exec(*og.action, as.store, ap.vars, actx);
  if (ig.action) ir::exec(*ig.action, ps.store, pp.vars, pctx);
  as.state = og.next;
  ps.state = ig.next;

  if (text) {
    std::string an = active < 0 ? "h" : strf("r%d", active);
    std::string pn = passive < 0 ? "h" : strf("r%d", passive);
    l.text = strf("%s!%s -> %s", an.c_str(),
                  protocol_->message(og.msg).name.c_str(), pn.c_str());
  }
  l.completes_rendezvous = true;
  l.actor = active;
  // The active party's rendezvous is the one being granted: a remote-active
  // sync grants that remote's request, a home-active sync the home's.
  l.granted_to = active;
  l.decision = protocol_->message(og.msg).name;
}

// The codec is written once, per component; encode() and decode_into() loop
// over it.

void RendezvousSystem::encode(const RvState& s, ByteSink& sink) const {
  for (int c = 0; c < num_components(); ++c) encode_component(s, c, sink);
}

void RendezvousSystem::encode_component(const RvState& s, int c,
                                        ByteSink& sink) const {
  const ProcState& ps = proc(s, c);
  sink.varint(ps.state);
  ps.store.encode(sink);
  sink.boundary(c == 0 ? kCompHome : kCompRemote);
}

RvState RendezvousSystem::decode(ByteSource& src) const {
  RvState s;
  decode_into(src, s);
  return s;
}

void RendezvousSystem::decode_into(ByteSource& src, RvState& s,
                                   std::vector<ComponentMark>* marks) const {
  s.remotes.resize(n_);
  if (marks) marks->clear();
  for (int c = 0; c < num_components(); ++c) {
    ProcState& ps = proc(s, c);
    const auto& vars = c == 0 ? protocol_->home.vars : protocol_->remote.vars;
    ps.state = static_cast<ir::StateId>(src.varint());
    if (ps.store.size() != vars.size()) ps.store = ir::Store(vars);
    ps.store.decode(src);
    if (marks)
      marks->push_back({static_cast<std::uint32_t>(src.position()),
                        c == 0 ? kCompHome : kCompRemote});
  }
}

std::string RendezvousSystem::describe(const RvState& s) const {
  auto proc_str = [&](const ir::Process& p, const ProcState& ps,
                      const std::string& name) {
    std::string out = name + "=" + p.state(ps.state).name;
    if (!p.vars.empty()) {
      out += "(";
      for (std::size_t v = 0; v < p.vars.size(); ++v) {
        if (v) out += ",";
        out += strf("%s=%llu", p.vars[v].name.c_str(),
                    static_cast<unsigned long long>(ps.store.get(
                        static_cast<ir::VarId>(v))));
      }
      out += ")";
    }
    return out;
  };
  std::string out = proc_str(protocol_->home, s.home, "h");
  for (int i = 0; i < n_; ++i)
    out += " " + proc_str(protocol_->remote, s.remotes[i], strf("r%d", i));
  return out;
}

// ---- symmetry ------------------------------------------------------------------

void RendezvousSystem::permute(RvState& s, const ir::NodePerm& perm) const {
  CCREF_REQUIRE(perm.size() == static_cast<std::size_t>(n_));
  std::vector<ProcState> remotes(n_);
  for (int i = 0; i < n_; ++i) remotes[perm[i]] = std::move(s.remotes[i]);
  s.remotes = std::move(remotes);
  ir::remap_store(s.home.store, protocol_->home.vars, perm);
  for (auto& r : s.remotes)
    ir::remap_store(r.store, protocol_->remote.vars, perm);
}

void RendezvousSystem::canonicalize(RvState& s) const {
  if (n_ <= 1) return;
  // Per-remote signature: every identity-dependent fact about remote i,
  // written identity-independently — its own control state and store (Node
  // self-references fold to a fixed tag; references to *other* remotes stay
  // raw, which keeps the reduction sound but only partially canonical for
  // protocols with remote-to-remote references; the shipped protocols have
  // none), plus the home's view of i (does each home Node var name it, is it
  // in each home copyset).
  const auto& hvars = protocol_->home.vars;
  const auto& rvars = protocol_->remote.vars;
  std::vector<std::vector<std::byte>> sig(n_);
  ByteSink sink;
  for (int i = 0; i < n_; ++i) {
    sink.clear();
    sink.varint(s.remotes[i].state);
    for (std::size_t v = 0; v < rvars.size(); ++v) {
      const ir::Value val = s.remotes[i].store.get(static_cast<ir::VarId>(v));
      switch (rvars[v].type) {
        case ir::Type::Node:
          sink.varint(val == static_cast<ir::Value>(i)
                          ? static_cast<ir::Value>(n_)
                          : val);
          break;
        case ir::Type::NodeSet:
          sink.u8((val >> i) & 1u);
          sink.varint(val & ~(ir::Value{1} << i));
          break;
        default:
          sink.varint(val);
      }
    }
    for (std::size_t v = 0; v < hvars.size(); ++v) {
      const ir::Value val = s.home.store.get(static_cast<ir::VarId>(v));
      if (hvars[v].type == ir::Type::Node)
        sink.u8(val == static_cast<ir::Value>(i) ? 1 : 0);
      else if (hvars[v].type == ir::Type::NodeSet)
        sink.u8((val >> i) & 1u);
    }
    sig[i] = std::vector<std::byte>(sink.bytes().begin(), sink.bytes().end());
  }

  std::vector<int> order(n_);
  for (int i = 0; i < n_; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return sig[a] != sig[b] ? sig[a] < sig[b] : a < b;
  });

  ir::NodePerm perm(n_);
  for (int p = 0; p < n_; ++p)
    perm[order[p]] = static_cast<std::uint8_t>(p);
  if (!ir::is_identity(perm)) permute(s, perm);
}

}  // namespace ccref::sem

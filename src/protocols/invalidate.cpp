#include "protocols/invalidate.hpp"

#include "ir/builder.hpp"
#include "support/strings.hpp"

namespace ccref::protocols {

using namespace ir;  // NOLINT — protocol definitions read like the figures
using ex::negate;
using ex::set_empty;
using ex::var;

Protocol make_invalidate() {
  ProtocolBuilder b("invalidate");

  MsgId REQS = b.msg("reqS");               // read miss
  MsgId REQX = b.msg("reqX");               // write miss / upgrade
  MsgId GRS = b.msg("grS", {Type::Int});    // shared grant
  MsgId GRX = b.msg("grX", {Type::Int});    // exclusive grant
  MsgId INV = b.msg("inv");                 // invalidate a sharer
  MsgId RVK = b.msg("rvk");                 // revoke the exclusive owner
  MsgId WB = b.msg("WB", {Type::Int});      // writeback (dirty data)
  MsgId DROP = b.msg("drop");               // sharer evicted its clean copy

  // ---- home node ----
  auto& h = b.home();
  VarId cs = h.var("cs", Type::NodeSet);  // sharers
  VarId o = h.var("o", Type::Node, kNoNode);       // exclusive owner (when excl)
  VarId j = h.var("j", Type::Node, kNoNode);       // pending requester
  VarId t = h.var("t", Type::Node, kNoNode);       // invalidation target
  VarId excl = h.var("excl", Type::Bool);
  VarId mem = h.var("mem", Type::Int, 0, 1);

  h.comm("H").initial();
  h.comm("GS");    // grant shared to j
  h.comm("GX");    // grant exclusive to j
  h.comm("INV");   // sweep the copyset before an exclusive grant
  h.comm("RX1");   // revoke owner, then grant shared
  h.comm("RX1W");
  h.comm("RX2");   // revoke owner, then grant exclusive
  h.comm("RX2W");

  h.input("H", REQS).from_any(j).when(negate(var(excl))).go("GS");
  h.input("H", REQS).from_any(j).when(var(excl)).go("RX1");
  h.input("H", REQX)
      .from_any(j)
      .when(negate(var(excl)))
      .act(st::set_remove(cs, var(j)))  // an upgrading sharer leaves cs
      .go("INV");
  h.input("H", REQX).from_any(j).when(var(excl)).go("RX2");
  // Dead binders (t, j, o) are reset to the null node once no longer needed so the
  // rendezvous state space stays canonical (states differing only in stale
  // binder values collapse).
  h.input("H", WB)
      .from(var(o))
      .when(var(excl))
      .bind({mem})
      .act(st::seq({st::assign(excl, ex::boolean(false)),
                    st::assign(o, ex::no_node())}))
      .go("H")
      .label("voluntary writeback");
  h.input("H", DROP)
      .from_any(t)
      .act(st::seq({st::set_remove(cs, var(t)), st::assign(t, ex::no_node())}))
      .go("H");

  h.output("GS", GRS)
      .to(var(j))
      .pay({var(mem)})
      .act(st::seq({st::set_add(cs, var(j)), st::assign(j, ex::no_node())}))
      .go("H");

  // Invalidation sweep: each inv rendezvous is itself the acknowledgement;
  // concurrent sharer drops are also accepted so the sweep cannot deadlock.
  h.output("INV", INV)
      .to_any_in(var(cs), t)
      .act(st::seq({st::set_remove(cs, var(t)), st::assign(t, ex::no_node())}))
      .go("INV");
  h.input("INV", DROP)
      .from_any(t)
      .act(st::seq({st::set_remove(cs, var(t)), st::assign(t, ex::no_node())}))
      .go("INV");
  h.tau("INV", "swept").when(set_empty(var(cs))).go("GX");

  h.output("GX", GRX)
      .to(var(j))
      .pay({var(mem)})
      .act(st::seq({st::assign(excl, ex::boolean(true)),
                    st::assign(o, var(j)), st::assign(j, ex::no_node())}))
      .go("H");

  h.output("RX1", RVK).to(var(o)).go("RX1W");
  h.input("RX1", WB)
      .from(var(o))
      .bind({mem})
      .act(st::seq({st::assign(excl, ex::boolean(false)),
                    st::assign(o, ex::no_node())}))
      .go("GS")
      .label("evict raced revoke");
  h.input("RX1W", WB)
      .from(var(o))
      .bind({mem})
      .act(st::seq({st::assign(excl, ex::boolean(false)),
                    st::assign(o, ex::no_node())}))
      .go("GS");

  h.output("RX2", RVK).to(var(o)).go("RX2W");
  h.input("RX2", WB)
      .from(var(o))
      .bind({mem})
      .act(st::seq({st::assign(excl, ex::boolean(false)),
                    st::assign(o, ex::no_node())}))
      .go("INV")
      .label("evict raced revoke");
  h.input("RX2W", WB)
      .from(var(o))
      .bind({mem})
      .act(st::seq({st::assign(excl, ex::boolean(false)),
                    st::assign(o, ex::no_node())}))
      .go("INV");

  // ---- remote node ----
  auto& r = b.remote();
  VarId d = r.var("d", Type::Int, 0, 1);

  r.internal("I");
  r.comm("AR");     // active: read request
  r.comm("WS");     // waiting for shared grant
  r.comm("AW");     // active: write request
  r.comm("WX");     // waiting for exclusive grant
  r.comm("S");      // shared (clean) copy
  r.comm("M");      // modified (dirty) copy
  r.comm("WBACK");  // active: writing back dirty data
  r.comm("ADROP");  // active: reporting a clean eviction

  r.tau("I", "read").go("AR");
  r.tau("I", "write").go("AW");
  r.output("AR", REQS).go("WS");
  r.input("WS", GRS).bind({d}).go("S");
  r.output("AW", REQX).go("WX");
  r.input("WX", GRX).bind({d}).go("M");

  // Note: there is deliberately no direct S -> AW upgrade. An upgrading
  // sharer would sit in the copyset offering only reqX, while the home's INV
  // sweep offers only inv/drop to copyset members — a rendezvous deadlock.
  // Sharers instead evict (drop) and re-request from I, a standard
  // simplification for directory protocols specified atomically.
  r.input("S", INV).go("I");
  r.tau("S", "evict").go("ADROP");
  r.output("ADROP", DROP).go("I");

  r.input("M", RVK).go("WBACK");
  r.tau("M", "evict").go("WBACK");
  r.output("WBACK", WB).pay({var(d)}).go("I");

  return b.build();
}

std::function<std::string(const sem::RvState&)> invalidate_invariant(
    const ir::Protocol& protocol, int num_remotes) {
  const StateId rS = protocol.remote.find_state("S");
  const StateId rM = protocol.remote.find_state("M");
  const StateId rWB = protocol.remote.find_state("WBACK");
  const VarId cs = protocol.home.find_var("cs");
  const VarId o = protocol.home.find_var("o");
  const VarId excl = protocol.home.find_var("excl");
  CCREF_REQUIRE(rS != kNoState && rM != kNoState && rWB != kNoState &&
                cs != kNoVar && o != kNoVar && excl != kNoVar);

  return [=](const sem::RvState& s) -> std::string {
    int dirty = 0;
    int dirty_holder = -1;
    for (int i = 0; i < num_remotes; ++i) {
      StateId rs = s.remotes[i].state;
      if (rs == rM || rs == rWB) {
        ++dirty;
        dirty_holder = i;
      }
    }
    const bool is_excl = s.home.store.get(excl) != 0;
    const NodeSet copyset(s.home.store.get(cs));
    if (dirty > 1) return strf("%d remotes are dirty simultaneously", dirty);
    if (dirty == 1 && !is_excl)
      return strf("r%d is dirty but home is not exclusive", dirty_holder);
    if (dirty == 1 &&
        static_cast<int>(s.home.store.get(o)) != dirty_holder)
      return strf("home records owner r%llu but r%d is dirty",
                  static_cast<unsigned long long>(s.home.store.get(o)),
                  dirty_holder);
    if (is_excl && !copyset.empty())
      return "home is exclusive but the copyset is non-empty";
    for (int i = 0; i < num_remotes; ++i) {
      if (s.remotes[i].state == rS &&
          !copyset.contains(static_cast<NodeId>(i)))
        return strf("r%d has a shared copy but is missing from the copyset",
                    i);
      if (s.remotes[i].state == rM &&
          copyset.contains(static_cast<NodeId>(i)))
        return strf("r%d is dirty yet still in the copyset", i);
    }
    return "";
  };
}


std::function<std::string(const runtime::AsyncState&)>
invalidate_async_invariant(const ir::Protocol& protocol, int num_remotes) {
  const StateId rS = protocol.remote.find_state("S");
  const StateId rM = protocol.remote.find_state("M");
  const StateId rWB = protocol.remote.find_state("WBACK");
  CCREF_REQUIRE(rS != kNoState && rM != kNoState && rWB != kNoState);

  return [=](const runtime::AsyncState& s) -> std::string {
    int dirty = 0, shared = 0;
    for (int i = 0; i < num_remotes; ++i) {
      StateId rs = s.remotes[i].state;
      if (rs == rM) {
        ++dirty;
      } else if (rs == rWB) {
        // A writing-back remote stops being dirty once the home committed
        // the WB rendezvous (ack already in flight back to it).
        bool committed = false;
        if (s.remotes[i].transient)
          for (const auto& m : s.down[i].q)
            if (m.meta == runtime::Meta::Ack ||
                m.meta == runtime::Meta::Repl)
              committed = true;
        if (!committed) ++dirty;
      }
      if (rs == rS) ++shared;
    }
    if (dirty > 1) return strf("%d remotes are dirty simultaneously", dirty);
    if (dirty == 1 && shared > 0)
      return strf("a dirty copy coexists with %d shared copies", shared);
    return "";
  };
}

}  // namespace ccref::protocols

#include "protocols/writeupdate.hpp"

#include "ir/builder.hpp"
#include "support/strings.hpp"

namespace ccref::protocols {

using namespace ir;  // NOLINT — protocol definitions read like the figures
using ex::add;
using ex::lit;
using ex::set_empty;
using ex::var;

Protocol make_write_update() {
  ProtocolBuilder b("writeupdate");

  MsgId REQS = b.msg("reqS");             // join the sharers
  MsgId GRS = b.msg("grS", {Type::Int});  // shared grant with current value
  MsgId WR = b.msg("wr", {Type::Int});    // write-through of a new value
  MsgId UPD = b.msg("upd", {Type::Int});  // push the new value to a sharer
  MsgId DROP = b.msg("drop");             // sharer leaves the copyset

  // ---- home node ----
  auto& h = b.home();
  VarId cs = h.var("cs", Type::NodeSet);   // sharers
  VarId rem = h.var("rem", Type::NodeSet); // sweep worklist
  VarId j = h.var("j", Type::Node, kNoNode);        // requester / writer
  VarId t = h.var("t", Type::Node, kNoNode);        // sweep target
  VarId mem = h.var("mem", Type::Int, 0, 2);

  h.comm("H").initial();
  h.comm("GS");
  h.comm("UPD");

  h.input("H", REQS).from_any(j).go("GS");
  h.input("H", WR)
      .from_any(j)
      .bind({mem})
      .act(st::seq({st::assign(rem, var(cs)), st::set_remove(rem, var(j)),
                    st::assign(j, ex::no_node())}))
      .go("UPD")
      .label("write-through; push to the other sharers");
  h.input("H", DROP)
      .from_any(t)
      .act(st::seq({st::set_remove(cs, var(t)), st::assign(t, ex::no_node())}))
      .go("H");

  h.output("GS", GRS)
      .to(var(j))
      .pay({var(mem)})
      .act(st::seq({st::set_add(cs, var(j)), st::assign(j, ex::no_node())}))
      .go("H");

  // Update sweep: push the new value to every remaining sharer; concurrent
  // drops must be accepted or the sweep deadlocks against an evicting
  // sharer (the same argument as the invalidate protocol's INV state).
  h.output("UPD", UPD)
      .to_any_in(var(rem), t)
      .pay({var(mem)})
      .act(st::seq({st::set_remove(rem, var(t)), st::assign(t, ex::no_node())}))
      .go("UPD");
  h.input("UPD", DROP)
      .from_any(t)
      .act(st::seq({st::set_remove(cs, var(t)), st::set_remove(rem, var(t)),
                    st::assign(t, ex::no_node())}))
      .go("UPD");
  // A second writer racing the sweep would deadlock it (it sits in AW
  // offering only wr, while the sweep offers it only upd). Absorb the write
  // and restart the sweep with the newer value.
  h.input("UPD", WR)
      .from_any(j)
      .bind({mem})
      .act(st::seq({st::assign(rem, var(cs)), st::set_remove(rem, var(j)),
                    st::assign(j, ex::no_node())}))
      .go("UPD")
      .label("write raced the sweep; restart");
  h.tau("UPD", "swept").when(set_empty(var(rem))).go("H");

  // ---- remote node ----
  auto& r = b.remote();
  VarId d = r.var("d", Type::Int, 0, 2);

  r.internal("I");
  r.comm("AR");   // active: join
  r.comm("WS");   // waiting for the shared grant
  r.comm("S");    // sharing; reads hit locally, updates arrive via upd
  r.comm("AW");   // active: publishing a write
  r.comm("ADROP");

  r.tau("I", "read").go("AR");
  r.output("AR", REQS).go("WS");
  r.input("WS", GRS).bind({d}).go("S");

  r.input("S", UPD).bind({d}).go("S").label("another sharer wrote");
  r.tau("S", "write").act(st::assign(d, add(var(d), lit(1)))).go("AW");
  r.tau("S", "evict").go("ADROP");
  r.output("AW", WR).pay({var(d)}).go("S");
  r.output("ADROP", DROP).go("I");

  return b.build();
}

std::function<std::string(const sem::RvState&)> write_update_invariant(
    const ir::Protocol& protocol, int num_remotes) {
  const StateId rS = protocol.remote.find_state("S");
  const StateId hH = protocol.home.find_state("H");
  const VarId cs = protocol.home.find_var("cs");
  const VarId mem = protocol.home.find_var("mem");
  const VarId d = protocol.remote.find_var("d");
  CCREF_REQUIRE(rS != kNoState && hH != kNoState && cs != kNoVar &&
                mem != kNoVar && d != kNoVar);

  return [=](const sem::RvState& s) -> std::string {
    const NodeSet copyset(s.home.store.get(cs));
    for (int i = 0; i < num_remotes; ++i) {
      if (s.remotes[i].state != rS) continue;
      if (!copyset.contains(static_cast<NodeId>(i)))
        return strf("r%d shares but is missing from the copyset", i);
      if (s.home.state == hH &&
          s.remotes[i].store.get(d) != s.home.store.get(mem))
        return strf("home idle but r%d caches %llu while memory holds %llu",
                    i,
                    static_cast<unsigned long long>(s.remotes[i].store.get(d)),
                    static_cast<unsigned long long>(s.home.store.get(mem)));
    }
    return "";
  };
}

}  // namespace ccref::protocols

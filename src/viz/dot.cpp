#include "viz/dot.hpp"

#include "ir/print.hpp"
#include "support/strings.hpp"

namespace ccref::viz {

using ir::Process;
using ir::Protocol;
using ir::StateId;
using ir::StateKind;
using refine::MsgClass;
using refine::RefinedProtocol;

namespace {

std::string escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string peer_of_output(const ir::OutputGuard& g, const Process& proc) {
  switch (g.to.kind) {
    case ir::PeerSel::Kind::Home:
      return "h";
    case ir::PeerSel::Kind::Expr:
      return "r(" + to_string(*g.to.expr, proc) + ")";
    case ir::PeerSel::Kind::AnyInSet:
      return "r(pick " + to_string(*g.to.expr, proc) + ")";
    case ir::PeerSel::Kind::Bcast:
      return "bcast";
  }
  return "?";
}

std::string peer_of_input(const ir::InputGuard& g, const Process& proc) {
  switch (g.from.kind) {
    case ir::PeerSrc::Kind::Home:
      return "h";
    case ir::PeerSrc::Kind::Any:
      return "r(i)";
    case ir::PeerSrc::Kind::Expr:
      return "r(" + to_string(*g.from.expr, proc) + ")";
    case ir::PeerSrc::Kind::Bcast:
      return "bcast";
  }
  return "?";
}

}  // namespace

std::string rendezvous_dot(const Protocol& protocol, const Process& process) {
  std::string out = strf("digraph %s_%s {\n", protocol.name.c_str(),
                         process.name.c_str());
  out += "  rankdir=LR;\n  node [shape=circle, fontsize=11];\n";
  for (StateId si = 0; si < process.states.size(); ++si) {
    const ir::State& s = process.states[si];
    out += strf("  s%u [label=\"%s\"%s%s];\n", si, escape(s.name).c_str(),
                s.kind == StateKind::Internal ? ", style=dashed" : "",
                si == process.initial ? ", penwidth=2" : "");
  }
  for (StateId si = 0; si < process.states.size(); ++si) {
    const ir::State& s = process.states[si];
    for (const auto& g : s.inputs)
      out += strf("  s%u -> s%u [label=\"%s?%s\"];\n", si, g.next,
                  escape(peer_of_input(g, process)).c_str(),
                  escape(protocol.message(g.msg).name).c_str());
    for (const auto& g : s.outputs)
      out += strf("  s%u -> s%u [label=\"%s!%s\"];\n", si, g.next,
                  escape(peer_of_output(g, process)).c_str(),
                  escape(protocol.message(g.msg).name).c_str());
    for (const auto& g : s.taus)
      out += strf("  s%u -> s%u [label=\"%s\", style=dashed];\n", si, g.next,
                  escape(g.label.empty() ? "tau" : g.label).c_str());
  }
  out += "}\n";
  return out;
}

std::string refined_dot(const RefinedProtocol& refined,
                        const Process& process) {
  const Protocol& protocol = *refined.base;
  std::string out = strf("digraph %s_%s_refined {\n", protocol.name.c_str(),
                         process.name.c_str());
  out += "  rankdir=LR;\n  node [shape=circle, fontsize=11];\n";

  for (StateId si = 0; si < process.states.size(); ++si) {
    const ir::State& s = process.states[si];
    out += strf("  s%u [label=\"%s\"%s%s];\n", si, escape(s.name).c_str(),
                s.kind == StateKind::Internal ? ", style=dashed" : "",
                si == process.initial ? ", penwidth=2" : "");
  }

  auto transient_node = [&](StateId si, std::size_t gi) {
    return strf("t%u_%zu", si, gi);
  };

  for (StateId si = 0; si < process.states.size(); ++si) {
    const ir::State& s = process.states[si];

    for (const auto& g : s.inputs) {
      // Inputs are consumed from the buffer; an ack (or fused reply) goes
      // back unless the message is fused or elide-ack.
      MsgClass cls = refined.cls(g.msg);
      const char* style =
          cls == MsgClass::ElideAck ? ", style=dotted" : "";
      out += strf("  s%u -> s%u [label=\"%s??%s\"%s];\n", si, g.next,
                  escape(peer_of_input(g, process)).c_str(),
                  escape(protocol.message(g.msg).name).c_str(), style);
    }

    for (std::size_t gi = 0; gi < s.outputs.size(); ++gi) {
      const auto& g = s.outputs[gi];
      MsgClass cls = refined.cls(g.msg);
      std::string label = strf("%s!!%s",
                               escape(peer_of_output(g, process)).c_str(),
                               escape(protocol.message(g.msg).name).c_str());
      if (cls == MsgClass::Reply || cls == MsgClass::ElideAck) {
        // Fire-and-forget: no transient state.
        out += strf("  s%u -> s%u [label=\"%s\"%s];\n", si, g.next,
                    label.c_str(),
                    cls == MsgClass::ElideAck ? ", style=dotted" : "");
        continue;
      }
      // Request: route through a dotted transient state with ack/nack edges.
      std::string t = transient_node(si, gi);
      out += strf("  %s [label=\"\", style=dotted, width=0.25];\n", t.c_str());
      out += strf("  s%u -> %s [label=\"%s\"];\n", si, t.c_str(),
                  label.c_str());
      const auto* hf =
          process.role == ir::Role::Home ? refined.home_fusion_at(si, gi)
                                         : nullptr;
      const auto* rf = process.role == ir::Role::Remote
                           ? refined.remote_fusion_at(si)
                           : nullptr;
      if (hf) {
        // The fused reply lands wherever og.next's consuming guard goes.
        StateId dest = g.next;
        for (const auto& ig2 : process.state(g.next).inputs)
          if (ig2.msg == hf->reply) {
            dest = ig2.next;
            break;
          }
        out += strf("  %s -> s%u [label=\"??%s\"];\n", t.c_str(), dest,
                    escape(protocol.message(hf->reply).name).c_str());
      } else if (rf) {
        const auto& w = process.state(rf->wait_state);
        out += strf("  %s -> s%u [label=\"??%s\"];\n", t.c_str(),
                    w.inputs[0].next,
                    escape(protocol.message(rf->reply).name).c_str());
      } else {
        out += strf("  %s -> s%u [label=\"??ack\"];\n", t.c_str(), g.next);
      }
      out += strf("  %s -> s%u [label=\"??nack\", style=dashed];\n",
                  t.c_str(), si);
      if (process.role == ir::Role::Remote)
        out += strf("  %s -> %s [label=\"??*\", style=dotted];\n", t.c_str(),
                    t.c_str());
    }

    for (const auto& g : s.taus)
      out += strf("  s%u -> s%u [label=\"%s\", style=dashed];\n", si, g.next,
                  escape(g.label.empty() ? "tau" : g.label).c_str());
  }
  out += "}\n";
  return out;
}

}  // namespace ccref::viz

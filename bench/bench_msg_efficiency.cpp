// Experiment E-MSG — the paper's protocol-quality metric (§1, §3.3, §5):
//
//   quality = "the number of request, acknowledge, and negative acknowledge
//   (nack) messages needed for carrying out the rendezvous"
//
// Compares, per completed workload operation:
//   generic      — §3 refinement without request/reply fusion
//                  (every rendezvous costs request + ack);
//   refined      — the full procedure with §3.3 fusion (req/gr and inv/ID
//                  collapse to two messages);
//   hand-design  — the Avalanche team's asynchronous migratory protocol,
//                  which additionally drops the ack after LR (§5's dotted
//                  arrows). The paper: "the loss of efficiency due to the
//                  extra ack is small" — measured here.
#include <cstdio>
#include <iostream>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sim/simulator.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace ccref;

namespace {

void row_for(Table& table, JsonArrayFile& json, const char* proto,
             const char* variant, const ir::Protocol& p,
             const refine::Options& opts, const sim::Workload& w, int n,
             std::uint64_t seed) {
  auto rp = refine::refine(p, opts);
  runtime::AsyncSystem sys(rp, n);
  sim::SimOptions sopts;
  sopts.seed = seed;
  auto stats = sim::simulate(sys, w, sopts);
  JsonObject o;
  o.field("bench", "msg_efficiency")
      .field("protocol", proto)
      .field("variant", variant)
      .field("n", n)
      .field("semantics", "asynchronous")
      .field("engine", "sim")
      .field("jobs", 1)
      .field("symmetry", "off")
      .field("finished", stats.finished);
  if (!stats.finished) {
    table.row({proto, variant, strf("%d", n), "STALLED", "-", "-", "-", "-",
               "-"});
    json.push(o);
    return;
  }
  o.field("ops", stats.ops_total)
      .field("req", stats.req)
      .field("ack", stats.ack)
      .field("nack", stats.nack)
      .field("repl", stats.repl)
      .field("msgs_per_op", stats.msgs_per_op())
      // Simulator rows: zeros keep the disk-usage schema uniform.
      .field("spill_bytes", std::size_t{0})
      .field("external_bytes", std::size_t{0});
  json.push(o);
  table.row({proto, variant, strf("%d", n), strf("%llu",
                 static_cast<unsigned long long>(stats.ops_total)),
             strf("%llu", static_cast<unsigned long long>(stats.req)),
             strf("%llu", static_cast<unsigned long long>(stats.ack)),
             strf("%llu", static_cast<unsigned long long>(stats.nack)),
             strf("%llu", static_cast<unsigned long long>(stats.repl)),
             strf("%.2f", stats.msgs_per_op())});
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  int cycles = static_cast<int>(cli.uint_flag(
      "cycles", 50, 1, 1u << 20, "acquire/release cycles per remote"));
  std::uint64_t seed =
      cli.uint_flag("seed", 7, 0, ~0ull, "scheduler seed");
  double write_frac =
      cli.double_flag("write-fraction", 0.3, "invalidate write-miss ratio");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();

  std::printf("E-MSG: wire messages per completed operation\n\n");
  Table table({"Protocol", "Variant", "N", "Ops", "req", "ack", "nack",
               "repl", "msgs/op"});
  JsonArrayFile json;

  refine::Options generic;
  generic.request_reply_fusion = false;
  generic.channel_capacity = 8;
  refine::Options refined;
  refined.channel_capacity = 8;
  refine::Options hand;
  hand.channel_capacity = 8;
  hand.elide_ack = {"LR"};

  auto mig = protocols::make_migratory();
  for (int n : {1, 4, 8}) {
    auto w = sim::migratory_workload(mig, n, cycles);
    row_for(table, json, "migratory", "generic (no fusion)", mig, generic, w,
            n, seed);
    row_for(table, json, "migratory", "refined (§3.3)", mig, refined, w, n,
            seed);
    row_for(table, json, "migratory", "hand design (no LR ack)", mig, hand, w,
            n, seed);
  }

  // (No hand-design variant for invalidate: eliding the drop ack breaks
  // forward progress there — see InvalidateHand.ElidedDropIsSafeButNotLive.)
  auto inv = protocols::make_invalidate();
  for (int n : {4, 8}) {
    auto w = sim::invalidate_workload(inv, n, cycles, write_frac, seed);
    row_for(table, json, "invalidate", "generic (no fusion)", inv, generic, w,
            n, seed);
    row_for(table, json, "invalidate", "refined (§3.3)", inv, refined, w, n,
            seed);
  }

  table.print(std::cout);
  std::printf(
      "\npaper: fused req/gr and inv/ID take 2 messages per pair instead of "
      "4; the hand design\nsaves exactly one further ack per LR, so the "
      "refined protocol is 'comparable in quality'.\n");
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}

// Experiment A-ABL — ablations of the refinement's design choices:
//
//   progress buffer (§3.2): reserve the last free slot for requests that can
//       complete a rendezvous in the current state. Without it, the buffer
//       fills with requests that cannot fire and the completing message is
//       nacked forever — the livelock the paper describes.
//   ack buffer (§3.2): reserve a slot for the pending target's response when
//       entering a transient state.
//   request/reply fusion (§3.3): message savings (see also E-MSG); here we
//       confirm it does not change safety or progress.
//
// Livelock is measured exactly: a *doomed* state is a reachable state from
// which no rendezvous-completing transition is ever reachable again.
//
// `--smoke` is the CI gate: it exits 1 unless every row is ok with the
// doomed count EXPERIMENTS.md § A-ABL records for it.
#include <cstdio>
#include <limits>
#include <iostream>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "verify/progress.hpp"

using namespace ccref;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  std::size_t mem = static_cast<std::size_t>(
      cli.size_flag("mem", "1G", 1u << 20,
                    std::numeric_limits<std::uint64_t>::max(),
                    "state-memory limit, e.g. 64M or 2G"));
  bool full = cli.bool_flag(
      "full", true, "include the invalidate N=4 rows (~1.2M states each)");
  bool smoke = cli.bool_flag(
      "smoke", false,
      "exit 1 unless every row is ok with its recorded doomed count");
  std::string json_path =
      cli.str_flag("json", "", "dump machine-readable results to this file");
  cli.finish();

  std::printf(
      "A-ABL: buffer-reservation ablations — doomed states = reachable "
      "livelock\n\n");
  Table table({"Protocol", "N", "progress buf", "ack buf", "fusion",
               "States", "Transitions", "Doomed states", "Memory",
               "Seconds", "Verdict"});
  JsonArrayFile json;
  int failures = 0;

  auto run = [&](const char* name, const ir::Protocol& p, int n,
                 bool progress, bool ack, bool fusion,
                 std::size_t want_doomed) {
    refine::Options opts;
    opts.progress_buffer = progress;
    opts.ack_buffer = ack;
    opts.request_reply_fusion = fusion;
    auto rp = refine::refine(p, opts);
    auto r = verify::check_progress(runtime::AsyncSystem(rp, n),
                                    {.memory_limit = mem});
    std::string verdict =
        r.status != verify::Status::Ok ? "Unfinished"
        : r.doomed == 0                ? "live"
                                       : "LIVELOCK";
    table.row({name, strf("%d", n), progress ? "on" : "off",
               ack ? "on" : "off", fusion ? "on" : "off",
               strf("%zu", r.states), strf("%zu", r.transitions),
               strf("%zu", r.doomed), strf("%.1fMB", r.memory_bytes / 1e6),
               strf("%.2f", r.seconds), verdict});
    if (smoke &&
        (r.status != verify::Status::Ok || r.doomed != want_doomed)) {
      std::fprintf(stderr,
                   "ABLATION SMOKE FAILED: %s N=%d progress=%d ack=%d "
                   "fusion=%d: %s with %zu doomed, want ok with %zu\n",
                   name, n, progress, ack, fusion,
                   verify::to_string(r.status), r.doomed, want_doomed);
      ++failures;
    }
    JsonObject o;
    o.field("bench", "ablation")
        .field("protocol", name)
        .field("n", n)
        .field("semantics", "asynchronous")
        .field("engine", "seq")
        .field("jobs", 1)
        .field("symmetry", "off")
        .field("progress_buffer", progress)
        .field("ack_buffer", ack)
        .field("fusion", fusion)
        .field("status", verify::to_string(r.status))
        .field("states", r.states)
        .field("transitions", r.transitions)
        .field("doomed", r.doomed)
        .field("memory_bytes", r.memory_bytes)
        // The progress checker keeps its graph in RAM; zeros keep the
        // disk-usage schema uniform across every bench's --json.
        .field("external_bytes", std::size_t{0})
        .field("seconds", r.seconds)
        .field("verdict", verdict);
    json.push(o);
  };

  auto mig = protocols::make_migratory();
  run("migratory", mig, 4, true, true, true, 0);
  run("migratory", mig, 4, false, true, true, 0);
  run("migratory", mig, 4, true, false, true, 0);
  run("migratory", mig, 4, false, false, true, 456);
  run("migratory", mig, 4, true, true, false, 0);

  if (full) {
    auto inv = protocols::make_invalidate();
    run("invalidate", inv, 4, true, true, true, 0);
    run("invalidate", inv, 4, false, true, true, 576);
    run("invalidate", inv, 4, true, false, true, 0);
    run("invalidate", inv, 4, false, false, true, 6432);
  }

  table.print(std::cout);
  std::printf(
      "\npaper (§3.2): without the progress-buffer reservation 'a livelock "
      "can result'; with both\nreservations the refined protocol guarantees "
      "forward progress for at least one remote (§2.5).\n");
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return failures ? 1 : 0;
}

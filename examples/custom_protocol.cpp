// Custom protocols from text: parse a .csp file, validate it, model-check
// the rendezvous view, refine it, and model-check the asynchronous result
// with the §4 simulation relation.
//
//   ./custom_protocol path/to/protocol.csp [--remotes=3]
//
// Run without arguments to use the bundled ticket-dispenser example
// (examples/protocols/ticket.csp is compiled in below so the binary works
// from any directory).
//
// Exit status: 0 when every check passes, 1 when a check fails or the
// protocol does not validate, 2 on unusable input (a bad flag, a parse
// error in the protocol text, a bad --ltl property).
#include <cstdio>

#include "dsl/parser.hpp"
#include "ir/print.hpp"
#include "ir/validate.hpp"
#include "ltl/check.hpp"
#include "refine/abstraction.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "support/cli.hpp"
#include "support/storage_cli.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"
#include "verify/progress.hpp"

using namespace ccref;

namespace {

constexpr const char* kBundledTicket = R"(
protocol ticket;
message take;
message ticket(int);

home h {
  var j: node;
  var next: int mod 4;
  state IDLE initial {
    r(any j)?take -> GIVE
  }
  state GIVE {
    r(j)!ticket(next) { next := next + 1; j := none } -> IDLE
  }
}

remote r {
  var mine: int mod 4;
  state ASK initial {
    h!take -> WAIT
  }
  state WAIT {
    h?ticket(mine) -> DONE
  }
  internal DONE {
    tau again -> ASK
  }
}
)";

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  int n = static_cast<int>(
      cli.uint_flag("remotes", 2, 1, 64, "number of remotes"));
  StorageFlags storage = storage_flags(cli, "64M");
  const unsigned jobs = jobs_flag(cli);
  const auto symmetry = symmetry_flag(cli);
  std::string ltl_text = cli.str_flag(
      "ltl", "", "LTL property to check on the asynchronous system, "
                 "e.g. \"G F completion\"");
  const auto fairness = fairness_flag(cli);
  const auto compress = compress_flag(cli);
  cli.finish();

  dsl::ParseResult parsed =
      cli.positional().empty() ? dsl::parse(kBundledTicket)
                               : dsl::parse_file(cli.positional()[0]);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed:\n%s\n",
                 parsed.error_text().c_str());
    return 2;
  }
  const ir::Protocol& p = *parsed.protocol;
  std::printf("parsed protocol '%s':\n\n%s\n", p.name.c_str(),
              ir::to_string(p).c_str());

  auto diags = ir::validate(p);
  if (ir::has_errors(diags)) {
    std::fprintf(stderr, "validation failed:\n%s",
                 ir::to_string(diags).c_str());
    return 1;
  }
  if (!diags.empty())
    std::printf("warnings:\n%s\n", ir::to_string(diags).c_str());

  sem::RendezvousSystem rendezvous(p, n);
  verify::CheckOptions<sem::RendezvousSystem> rv_opts;
  storage.apply(rv_opts);
  rv_opts.symmetry = symmetry;
  rv_opts.compress = compress;
  auto rv = jobs <= 1 ? verify::explore(rendezvous, rv_opts)
                      : verify::par_explore(rendezvous, rv_opts, jobs);
  std::printf("rendezvous (%d remotes): %s, %zu states (%.3fs)\n", n,
              verify::to_string(rv.status), rv.states, rv.seconds);
  if (rv.status != verify::Status::Ok) {
    std::printf("  %s\n", rv.violation.c_str());
    for (const auto& step : rv.trace) std::printf("  %s\n", step.c_str());
    return 1;
  }

  auto refined = refine::refine(p);
  std::printf("refinement:\n");
  for (ir::MsgId m = 0; m < p.messages.size(); ++m)
    std::printf("  %-10s %s\n", p.messages[m].name.c_str(),
                refine::to_string(refined.cls(m)));

  runtime::AsyncSystem async(refined, n);
  // Validate user-supplied LTL up front so a typo fails before the (possibly
  // long) exploration, not after it.
  if (!ltl_text.empty()) {
    auto compiled = ltl::compile(async, ltl_text);
    if (!compiled.error.empty()) {
      std::fprintf(stderr, "bad --ltl property: %s\n",
                   compiled.error.c_str());
      return 2;
    }
  }
  verify::CheckOptions<runtime::AsyncSystem> opts;
  storage.apply(opts);
  opts.symmetry = symmetry;
  opts.compress = compress;
  // The Equation-1 simulation proof only exists for star protocols: no
  // single rendezvous prefix corresponds to a mid-flight bus transaction
  // (DESIGN.md §4.9). Bus protocols get invariant/progress checks on both
  // levels instead.
  if (p.topology == ir::Topology::Star)
    opts.edge_check = refine::make_simulation_checker(async, rendezvous);
  else
    std::printf("topology bus: skipping the Equation-1 edge check "
                "(star-only; both levels are invariant-checked)\n");
  auto as = jobs <= 1 ? verify::explore(async, opts)
                      : verify::par_explore(async, opts, jobs);
  std::printf("asynchronous (%d remotes): %s, %zu states (%.3fs)\n", n,
              verify::to_string(as.status), as.states, as.seconds);
  if (!as.note.empty()) std::printf("  note: %s\n", as.note.c_str());
  if (as.status != verify::Status::Ok) {
    std::printf("  %s\n", as.violation.c_str());
    for (const auto& step : as.trace) std::printf("  %s\n", step.c_str());
    return 1;
  }

  note_progress_storage(storage);
  auto prog = verify::check_progress(async,
                                     {.memory_limit = storage.memory_limit,
                                      .symmetry = symmetry,
                                      .compress = compress});
  if (prog.status != verify::Status::Ok) {
    std::printf("progress: %s after %zu states\n",
                verify::to_string(prog.status), prog.states);
    return 1;
  }
  std::printf("progress: %zu/%zu states can always complete another "
              "rendezvous%s\n",
              prog.states - prog.doomed, prog.states,
              prog.doomed ? "  <-- LIVELOCK" : "");

  if (!ltl_text.empty()) {
    verify::LivenessOptions lopts;
    lopts.memory_limit = storage.memory_limit;
    lopts.fairness = fairness;
    lopts.symmetry = symmetry;
    lopts.compress = compress;
    auto live = ltl::check_ltl(async, ltl_text, lopts);
    std::printf("ltl %s under %s fairness: %s, %zu product states (%.3fs)\n",
                ltl_text.c_str(), verify::to_string(fairness),
                verify::to_string(live.status), live.states, live.seconds);
    if (!live.note.empty()) std::printf("  note: %s\n", live.note.c_str());
    if (live.status != verify::Status::Ok) {
      std::printf("  %s\n", live.violation.c_str());
      for (const auto& step : live.stem) std::printf("  %s\n", step.c_str());
      for (const auto& step : live.cycle)
        std::printf("  (cycle) %s\n", step.c_str());
      return 1;
    }
  }

  std::printf(p.topology == ir::Topology::Star
                  ? "\nall checks passed — Equation 1 held on every "
                    "transition.\n"
                  : "\nall checks passed — both levels invariant-clean.\n");
  return prog.doomed == 0 ? 0 : 1;
}

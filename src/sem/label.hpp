// Transition labels shared by the rendezvous and asynchronous semantics.
//
// Labels carry what the model checker, the soundness analyses, and the
// simulator need to know about a step: a human-readable description, whether
// the step *completes* a rendezvous (the paper's notion of forward progress,
// §2.5), how many wire messages of each kind it sent (the paper's quality
// metric, §1), and which autonomous decision it represents (so the simulator
// can gate CPU decisions like `rw`/`evict` on a workload).
#pragma once

#include <cstdint>
#include <string>

namespace ccref::sem {

/// How much of a Label successor generation should materialize.
///
/// `Label::text` exists for human consumption (counterexample traces,
/// simulator logs); building it costs a heap-allocated formatted string per
/// enumerated edge, which dominates the checker's hot path on the
/// asynchronous semantics. In `Quiet` mode the semantics skip the text and
/// fill only the machine-consumed fields (flags, message counters, actor,
/// decision).
enum class LabelMode : std::uint8_t {
  Full,   // materialize Label::text (traces, describe, debugging)
  Quiet,  // leave Label::text empty (hot exploration path)
};

struct Label {
  std::string text;

  /// True when this transition finishes a rendezvous: the synchronous step
  /// itself in the rendezvous semantics; the ack-generating (or fused-reply)
  /// step in the asynchronous semantics.
  bool completes_rendezvous = false;

  /// Wire messages sent during this step (asynchronous semantics only).
  std::uint8_t sent_req = 0;
  std::uint8_t sent_ack = 0;
  std::uint8_t sent_nack = 0;
  std::uint8_t sent_repl = 0;

  /// Acting process: -1 home, >= 0 remote id, -2 not applicable.
  int actor = -2;

  /// For completing steps only: whose outstanding rendezvous this step
  /// grants. >= 0 names the remote whose request completed (the `granted(i)`
  /// atomic proposition of the LTL layer, §6 per-node starvation); -1 means
  /// the home's own rendezvous completed; -2 not a grant.
  int granted_to = -2;

  /// Non-empty for τ decisions and remote active initiations; carries the
  /// τ's label (e.g. "evict") or the sent message name (e.g. "req"). The
  /// simulator matches this against pending workload events.
  std::string decision;

  [[nodiscard]] int messages_sent() const {
    return sent_req + sent_ack + sent_nack + sent_repl;
  }

  /// Back to the default value, keeping the strings' capacity so a label
  /// reused across in-place steps does not reallocate.
  void reset() {
    text.clear();
    completes_rendezvous = false;
    sent_req = sent_ack = sent_nack = sent_repl = 0;
    actor = granted_to = -2;
    decision.clear();
  }
};

}  // namespace ccref::sem

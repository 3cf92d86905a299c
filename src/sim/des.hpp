// Discrete-event simulator for refined star protocols.
//
// It answers both "does this workload complete, with how many messages"
// (the paper's §5 quality metric) and "how many CYCLES does it take": every
// wire message gets a latency from sim::CostModel, the home directory has an
// occupancy that creates queueing under contention, and per-op latency is
// collected into percentile histograms. The protocol semantics are the
// model checker's own: each step picks one of runtime::AsyncSystem's enabled
// actions (des_step below) and applies it to the live state in place — no
// state copies — on a pool-allocated event core with a timing-wheel event
// queue (support/event_pool.hpp, support/event_queue.hpp).
//
// Scaling past kMaxNodes: the protocol instance is per ADDRESS, with up to
// `slot_cap` (<= 64) concurrently *bound* nodes. A node binds a slot when it
// issues an op on the address, keeps it while the protocol machine holds
// residual state (cache residency), and a fresh-equivalent slot is detached
// on demand when new nodes contend. Thousands-to-millions of clients share
// one lock address through this revolving door; the wait queue is the
// "directory full" backpressure.
//
// Parallel lanes: addresses partition by `addr % lanes`; each lane owns its
// instances, event queue, and event pool. The only cross-lane interaction is
// a node whose NEXT op lands on another lane's address — handed over through
// per-lane outboxes that are exchanged at a window barrier, with the issue
// time clamped to the next window start. Timestamps therefore never run
// backwards (conservative synchronization), every exchange happens in a
// single-threaded barrier completion, and a run is deterministic for a
// fixed (seed, lanes, window, window_max).
//
// The window length adapts to the observed cross-lane event horizon: a
// barrier that exchanged no handoffs proves the lanes ran independently for
// the whole window, so the next window doubles (up to `window_max`); any
// handoff resets the length to the base `window`. Correctness never depends
// on the length — every exchange still happens at a barrier and issue times
// are still clamped forward — and the clamp error stays bounded by the base
// window whenever lanes actually interact. Workloads whose nodes stay on
// their own lane pay O(log) barriers instead of one per `window` cycles.
#pragma once

#include <cstdint>
#include <string>

#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sim/cost_model.hpp"
#include "sim/des_workload.hpp"
#include "sim/stats.hpp"

namespace ccref::sim {

/// Stores a node's write buffer retires before a forced drain.
inline constexpr std::uint32_t kWriteBufferCapacity = 8;

struct DesOptions {
  std::uint64_t max_events = 0;  // 0 = unbounded
  CostModel cost;
  bool write_buffer = false;  // retire up to kWriteBufferCapacity stores
  int lanes = 1;
  std::uint64_t window = 1024;  // base cross-lane sync window (cycles)
  // Adaptive-window cap: handoff-free windows double up to this length; a
  // handoff resets to `window`. 0 pins every window at `window` (the old
  // fixed-barrier cadence).
  std::uint64_t window_max = 1 << 17;
  int slot_cap = 64;  // concurrent bound nodes per address
};

/// Which part of an address instance takes a step.
enum class Part : std::uint8_t { DeliverUp, DeliverDown, Home, Remote };

enum class StepResult : std::uint8_t {
  Applied,  // the state was mutated; the label and log describe the step
  Blocked,  // only capacity-blocked actions remain; the state is untouched
  None,     // nothing enabled here (or every controllable move gated off)
};

/// A controllable remote decision: τ `guard` of remote state `state`, or
/// (`guard == kSend`) that state's active send. `label` is the τ's label
/// (e.g. "evict", "" when unlabelled) or the sent message's name ("req").
struct Decision {
  static constexpr std::uint8_t kSend = 0xff;
  ir::StateId state;
  std::uint8_t guard;
  const std::string& label;
};

/// Admits or refuses a controllable remote decision.
class DecisionGate {
 public:
  [[nodiscard]] virtual bool allows(int remote, const Decision& d) const = 0;

 protected:
  ~DecisionGate() = default;
};

/// The simulator's choice policy, applied in place: one step of `part`
/// (channel or remote `i` where it names one). The first unblocked action in
/// enumeration order is taken, except that a remote answers a buffered home
/// request (row C3) before any τ or send, and only τs and sends that `gate`
/// admits are candidates. Deliveries, C3 answers, snoop answers and home
/// steps are obligatory and never gated.
StepResult des_step(const runtime::AsyncSystem& sys, runtime::AsyncState& s,
                    Part part, int i, const DecisionGate& gate, sem::Label& l,
                    runtime::SendLog* log);

/// Run `source` to completion (or budget exhaustion) under the cost model.
/// Deterministic: same refined protocol + source + options => same stats.
[[nodiscard]] DesStats des_simulate(const refine::RefinedProtocol& refined,
                                    OpSource& source,
                                    const DesOptions& options = {});

}  // namespace ccref::sim

// Parallel explicit-state reachability engine — lock-free on every hot
// path.
//
// Same contract as verify::explore (checker.hpp), executed by a worker
// pool over a lock-free ShardedStateSet: each worker owns a Chase–Lev
// work-stealing deque (owner push/pop lock-free, steal by CAS) and
// steals from siblings when its own runs dry. Visited-set inserts are
// claim-by-CAS / publish-with-release (no shard mutexes). Under
// --compress collapse all shards share one interner whose dictionary hit
// path is a lock-free probe; a worker reads the expanded item's index
// tuple from its published record once, and each successor's insert
// copies the indices of the components its edge did not touch. For
// a run that completes with Status::Ok the reported state and transition
// counts are IDENTICAL to the sequential engine's — every reachable
// state is expanded exactly once, and the edge total is
// order-independent. What parallel exploration gives up is the
// breadth-first frontier: counterexample traces are valid paths but may
// be longer than the minimal ones the sequential BFS guarantees, and
// violations/deadlocks may be detected at a different (equally real)
// state. Memory exhaustion still yields Status::Unfinished against the
// same single budget, though the exact state count at exhaustion depends
// on scheduling.
//
// Under `--external` par_explore runs the sequential engine: explore()
// drives the one disk-backed visited set (external_set.hpp behind
// CollapsedStateSet) and the result carries a note that the run used one
// worker. So the workers here only ever see RAM tiers, every insert
// answers Inserted, AlreadyPresent or Exhausted at once, and termination
// needs nothing beyond the counter below.
//
// Termination detection (proof sketch in DESIGN.md §4.6): `in_flight`
// counts states inserted but not yet fully expanded. It is incremented
// BEFORE the item becomes stealable and decremented only AFTER its
// expansion pushed (and pre-counted) every fresh successor, so
// in_flight >= (queued items) + (items being expanded) at all times, and
// once it reads 0 no item exists anywhere and none can reappear — an
// idle worker that observes 0 can exit without a barrier. Idle workers
// spin with bounded exponential backoff (pause then yield); there is no
// sleep/poll loop, so quiescence is detected within a scheduling quantum.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "support/thread_pool.hpp"
#include "support/work_steal_deque.hpp"
#include "verify/checker.hpp"
#include "verify/sharded_state_set.hpp"

namespace ccref::verify {

/// Parallel counterpart of verify::explore. `jobs` == 0 means one worker
/// per hardware thread. The visited set has one shard per worker: shards
/// are a striping detail of the lock-free table (they spread resize epochs
/// and allocation counters), not a lock domain. Agrees with the sequential
/// engine on status always, and on state/transition counts whenever the
/// status is Ok.
template <class Sys>
[[nodiscard]] CheckResult par_explore(const Sys& sys,
                                      const CheckOptions<Sys>& opts = {},
                                      unsigned jobs = 0) {
  auto t0 = std::chrono::steady_clock::now();
  if (jobs == 0) jobs = ThreadPool::default_concurrency();
  if (opts.external.enabled()) {
    CheckResult result = explore(sys, opts);
    detail::append_note(result.note,
                        "external tier explores on one worker: --jobs " +
                            std::to_string(jobs) + " ignored");
    return result;
  }

  CheckResult result;
  const sem::LabelMode mode =
      opts.edge_check ? sem::LabelMode::Full : sem::LabelMode::Quiet;

  // Under compaction every record's payload IS the fingerprint trace
  // replay matches on, so the shards never keep a fingerprint log.
  auto resolved = detail::resolve_storage(opts);
  result.note = std::move(resolved.note);
  const StorageOptions& st = resolved.storage;
  ShardedStateSet seen(opts.memory_limit, jobs,
                       /*track_parents=*/opts.want_trace, st);

  // A frontier item carries its own copy of the encoded state: under
  // Collapse, reading a state back out of the set is not concurrent-safe
  // (and in Off mode the copy costs less than the cache traffic of
  // re-reading a remote shard's pool).
  struct Item {
    ShardedStateSet::Ref ref;
    std::vector<std::byte> bytes;
  };
  struct Worker {
    explicit Worker(bool record_marks) : sink(record_marks) {}
    WorkStealDeque<Item*> frontier;
    std::uint64_t transitions = 0;
    // Reused for every encode this worker performs; it records component
    // marks only for a tier that reads them.
    ComponentSink sink;
  };
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i)
    workers.push_back(std::make_unique<Worker>(seen.collapses()));

  // Termination detector: see the header comment. `stop` short-circuits
  // on the first violation / deadlock / memory exhaustion.
  std::atomic<std::size_t> in_flight{0};
  std::atomic<bool> stop{false};
  std::mutex fail_mu;  // cold: taken once, by the first failure
  bool failed = false;
  Status fail_status = Status::Ok;
  ShardedStateSet::Ref fail_ref{};
  std::string fail_msg;

  auto report = [&](Status status, ShardedStateSet::Ref ref, std::string msg) {
    {
      std::lock_guard<std::mutex> lock(fail_mu);
      if (!failed) {
        failed = true;
        fail_status = status;
        fail_ref = ref;
        fail_msg = std::move(msg);
      }
    }
    stop.store(true, std::memory_order_release);
  };

  {
    ComponentSink sink(seen.collapses());
    auto root = sys.initial();
    detail::maybe_canonicalize(sys, root, opts.symmetry);
    sys.encode(root, sink);
    auto ins = seen.insert(sink.bytes(), sink.marks());
    if (ins.outcome == InsertOutcome::Exhausted) {
      report(Status::Unfinished, {}, std::string());
    } else {
      CCREF_ASSERT(ins.outcome == InsertOutcome::Inserted);
      std::string msg = opts.invariant ? opts.invariant(root) : std::string();
      if (!msg.empty()) {
        report(Status::InvariantViolated, ins.ref, std::move(msg));
      } else {
        auto b = sink.bytes();
        in_flight.store(1, std::memory_order_relaxed);
        workers[0]->frontier.push(
            new Item{ins.ref, std::vector<std::byte>(b.begin(), b.end())});
      }
    }
  }

  auto worker_fn = [&](unsigned id) {
    Worker& self = *workers[id];
    SpinBackoff idle;
    // This worker's decode target and successor scratch (see
    // detail::for_each_successor), reused for every item it expands.
    auto state = sys.initial();
    auto scratch = state;
    sem::Label label;
    // Component marks of the expanded item's bytes, which successors are
    // spliced from (detail::encode_successor), and under Collapse its
    // stored index tuple, whose indices their inserts reuse.
    std::vector<ComponentMark> marks;
    ParentTuple tuple;

    auto next_item = [&]() -> Item* {
      if (Item* it = self.frontier.pop()) return it;
      // Steal from the top of a sibling's deque (oldest work — under BFS
      // ordering the shallowest states, i.e. the biggest subtrees).
      for (unsigned k = 1; k < workers.size(); ++k)
        if (Item* it = workers[(id + k) % workers.size()]->frontier.steal())
          return it;
      return nullptr;
    };

    while (!stop.load(std::memory_order_acquire)) {
      std::unique_ptr<Item> item(next_item());
      if (!item) {
        if (in_flight.load(std::memory_order_acquire) == 0) return;
        idle.pause();
        continue;
      }
      idle.reset();
      ByteSource src(item->bytes);
      sys.decode_into(src, state, &marks);
      if (seen.collapses()) tuple.load(seen.tuple_of(item->ref));

      const std::uint64_t edges_before = self.transitions;
      auto do_edge = [&](auto& succ, sem::Label& l, ComponentSet& touched) {
        ++self.transitions;
        if (opts.edge_check) {
          std::string msg = opts.edge_check(state, succ, l);
          if (!msg.empty()) {
            report(Status::InvariantViolated, item->ref,
                   "edge '" + l.text + "': " + msg);
            return false;
          }
        }
        detail::encode_successor(sys, succ, touched, opts.symmetry,
                                 item->bytes, marks, self.sink);
        auto ins = seen.insert(self.sink.bytes(), self.sink.marks(),
                               ShardedStateSet::pack(item->ref),
                               {&tuple, touched});
        if (ins.outcome == InsertOutcome::Exhausted) {
          report(Status::Unfinished, {}, std::string());
          return false;
        }
        if (ins.outcome == InsertOutcome::Inserted) {
          if (opts.invariant) {
            std::string msg = opts.invariant(succ);
            if (!msg.empty()) {
              report(Status::InvariantViolated, ins.ref, std::move(msg));
              return false;
            }
          }
          // Count BEFORE the item becomes stealable — the termination
          // detector's invariant depends on this order.
          in_flight.fetch_add(1, std::memory_order_release);
          auto b = self.sink.bytes();
          self.frontier.push(
              new Item{ins.ref, std::vector<std::byte>(b.begin(), b.end())});
        }
        return true;
      };

      if (!detail::for_each_successor(sys, state, scratch, mode, label,
                                      do_edge))
        return;
      if (self.transitions == edges_before && opts.detect_deadlock) {
        report(Status::Deadlock, item->ref,
               "deadlock: no enabled transition in " + sys.describe(state));
        return;
      }
      in_flight.fetch_sub(1, std::memory_order_acq_rel);
    }
  };

  {
    ThreadPool pool(jobs);
    for (unsigned i = 0; i < jobs; ++i)
      pool.submit([&worker_fn, i] { worker_fn(i); });
    pool.wait_idle();
  }
  // Early-stop runs leave unexpanded items behind; workers are joined, so
  // draining via owner pops is safe from this thread.
  for (auto& w : workers)
    while (Item* leftover = w->frontier.pop()) delete leftover;

  result.status = failed ? fail_status : Status::Ok;
  detail::fill_storage_stats(result, seen, st.hash_compact);
  for (const auto& w : workers) result.transitions += w->transitions;
  if (failed) {
    result.violation = std::move(fail_msg);
    if (opts.want_trace && fail_status != Status::Unfinished)
      result.trace = detail::rebuild_trace(sys, seen, fail_ref, opts.symmetry);
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace ccref::verify

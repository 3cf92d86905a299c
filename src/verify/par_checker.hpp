// Parallel explicit-state reachability engine — lock-free on every hot
// path.
//
// Same contract as verify::explore (checker.hpp), executed by a worker
// pool over a lock-free ShardedStateSet: visited-set inserts are
// claim-by-CAS / publish-with-release, and under --compress collapse all
// shards share one interner whose dictionary hit path is a lock-free
// probe (a worker reads the expanded state's index tuple from its record
// once; each successor's insert copies the indices its edge left alone).
// Each worker owns a frontier (par_frontier.hpp): a Chase–Lev deque of
// 8-byte handles naming published records, or under hash compaction
// entries of a per-worker log, and it steals from siblings when its own
// runs dry. Each worker inserts as its own writer of the set, which
// books the fresh states it inserts (and numbers them under hash
// compaction). Rings and log chunks are charged to the visited set's
// budget, so a refused charge ends the run Unfinished, like a refused
// insert.
//
// For a run that completes with Status::Ok the reported state and
// transition counts are IDENTICAL to the sequential engine's — every
// reachable state is expanded exactly once, and the edge total is
// order-independent. What parallel exploration gives up is the
// breadth-first frontier: counterexample traces are valid paths but may
// be longer than the minimal ones the sequential BFS guarantees, and
// violations/deadlocks may be detected at a different (equally real)
// state. The state count at exhaustion depends on scheduling.
//
// Under `--external` par_explore hands the run to explore() and notes that
// it used one worker, so every insert here answers at once.
//
// Termination detection (DESIGN.md §4.6): `in_flight` counts states
// inserted but not yet fully expanded. It is incremented BEFORE a state
// becomes stealable and decremented only AFTER its expansion pushed (and
// pre-counted) every fresh successor, so once it reads 0 no state is
// queued anywhere and none can reappear: an idle worker that observes 0
// exits without a barrier. Idle workers spin with bounded exponential
// backoff (pause then yield), never sleep.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "support/thread_pool.hpp"
#include "verify/checker.hpp"
#include "verify/par_frontier.hpp"

namespace ccref::verify {

/// Parallel counterpart of verify::explore. `jobs` == 0 means one worker
/// per hardware thread. The visited set has one writer per worker and as
/// many shards, up to 256: shards are a striping detail of the lock-free
/// table (they spread resize epochs and allocation counters), not a lock
/// domain. Agrees with the sequential
/// engine on status always, and on state/transition counts whenever the
/// status is Ok. `probe`, when set, sees the run's memory mid-flight.
template <class Sys>
[[nodiscard]] CheckResult par_explore(
    const Sys& sys, const CheckOptions<Sys>& opts = {}, unsigned jobs = 0,
    const detail::FrontierProbe& probe = {}) {
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

  auto resolved = detail::resolve_storage(opts);
  result.note = std::move(resolved.note);
  const StorageOptions& st = resolved.storage;
  ShardedStateSet seen(opts.memory_limit, jobs,
                       /*track_parents=*/opts.want_trace, st);

  struct Worker {
    explicit Worker(ShardedStateSet& seen)
        : frontier(seen), sink(seen.collapses()) {}
    ParFrontier frontier;
    std::uint64_t transitions = 0;
    // Reused for every encode this worker performs; it records component
    // marks only for a tier that reads them.
    ComponentSink sink;
    std::vector<std::byte> tuple;  // every insert's index tuple (Collapse)
  };
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i)
    workers.push_back(std::make_unique<Worker>(seen));

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

  auto sample = [&](bool joined) {
    detail::FrontierSample s{seen, 0, 0, joined};
    for (const auto& w : workers) {
      s.ring_bytes += w->frontier.ring_bytes();
      s.log_bytes += w->frontier.log_bytes();
    }
    return s;
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
        in_flight.store(1, std::memory_order_relaxed);
        if (!workers[0]->frontier.push(ins.ref, sink.bytes()))
          report(Status::Unfinished, {}, std::string());
      }
    }
  }

  auto worker_fn = [&](unsigned id) {
    Worker& self = *workers[id];
    SpinBackoff idle;
    // This worker's decode target and successor scratch (see
    // detail::for_each_successor), reused for every state it expands.
    auto state = sys.initial();
    auto scratch = state;
    sem::Label label;
    // Component marks of the expanded state's bytes, which successors are
    // spliced from (detail::encode_successor), and under Collapse its
    // stored index tuple, whose indices their inserts reuse.
    std::vector<ComponentMark> marks;
    ParentTuple tuple;

    auto next_handle = [&]() -> std::uint64_t {
      if (auto h = self.frontier.pop()) return h;
      // Steal from the top of a sibling's deque (oldest work — under BFS
      // ordering the shallowest states, i.e. the biggest subtrees).
      for (unsigned k = 1; k < workers.size(); ++k)
        if (auto h = workers[(id + k) % workers.size()]->frontier.steal())
          return h;
      return 0;
    };

    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t handle = next_handle();
      if (handle == 0) {
        if (in_flight.load(std::memory_order_acquire) == 0) return;
        idle.pause();
        continue;
      }
      idle.reset();
      const auto [ref, bytes] = self.frontier.take(handle);
      ByteSource src(bytes);
      sys.decode_into(src, state, &marks);
      if (seen.collapses()) tuple.load(seen.tuple_of(ref));

      const std::uint64_t edges_before = self.transitions;
      auto do_edge = [&](auto& succ, sem::Label& l, ComponentSet& touched) {
        ++self.transitions;
        if (opts.edge_check) {
          std::string msg = opts.edge_check(state, succ, l);
          if (!msg.empty()) {
            report(Status::InvariantViolated, ref,
                   "edge '" + l.text + "': " + msg);
            return false;
          }
        }
        detail::encode_successor(sys, succ, touched, opts.symmetry, bytes,
                                 marks, self.sink);
        auto ins = seen.insert(self.sink.bytes(), self.sink.marks(),
                               ShardedStateSet::pack(ref), {&tuple, touched},
                               &self.tuple, id);
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
          // Count BEFORE the state becomes stealable — the termination
          // detector's invariant depends on this order.
          in_flight.fetch_add(1, std::memory_order_release);
          if (!self.frontier.push(ins.ref, self.sink.bytes())) {
            report(Status::Unfinished, {}, std::string());
            return false;
          }
        }
        return true;
      };

      if (!detail::for_each_successor(sys, state, scratch, mode, label,
                                      do_edge))
        return;
      if (self.transitions == edges_before && opts.detect_deadlock) {
        report(Status::Deadlock, ref,
               "deadlock: no enabled transition in " + sys.describe(state));
        return;
      }
      if (probe) probe(sample(false));
      in_flight.fetch_sub(1, std::memory_order_acq_rel);
    }
  };

  {
    ThreadPool pool(jobs);
    for (unsigned i = 0; i < jobs; ++i)
      pool.submit([&worker_fn, &workers, i] {
        worker_fn(i);
        workers[i]->frontier.seal();
      });
    pool.wait_idle();
  }
  if (probe) probe(sample(true));

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

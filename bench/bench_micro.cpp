// MICRO — google-benchmark microbenchmarks of the checker's hot paths:
// state encode/decode, successor enumeration (both semantics) and in-place
// expansion, hashing, and visited-set insertion. These dominate Table 3's wall-clock numbers.
#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "support/atomic_table.hpp"
#include "support/build_info.hpp"
#include "support/event_pool.hpp"
#include "support/event_queue.hpp"
#include "support/hash.hpp"
#include "support/work_steal_deque.hpp"
#include "verify/checker.hpp"
#include "verify/collapse.hpp"
#include "verify/external_set.hpp"
#include "verify/memory_budget.hpp"

using namespace ccref;

namespace {

// A scratch directory under the system temp directory ($TMPDIR, else /tmp)
// for the benchmarks that write files.
std::string temp_dir(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

const ir::Protocol& migratory() {
  static const ir::Protocol p = protocols::make_migratory();
  return p;
}

const refine::RefinedProtocol& refined_migratory() {
  static const refine::RefinedProtocol rp = refine::refine(migratory());
  return rp;
}

void BM_RendezvousSuccessors(benchmark::State& state) {
  sem::RendezvousSystem sys(migratory(), static_cast<int>(state.range(0)));
  auto s = sys.initial();
  for (auto _ : state) benchmark::DoNotOptimize(sys.successors(s));
}
BENCHMARK(BM_RendezvousSuccessors)->Arg(4)->Arg(16)->Arg(64);

// The same state's edges as the checkers walk them: each action applied in
// place to one scratch state, with quiet labels, and its touched
// components restored (verify::detail::for_each_successor).
void BM_RendezvousExpandInPlace(benchmark::State& state) {
  sem::RendezvousSystem sys(migratory(), static_cast<int>(state.range(0)));
  const auto s = sys.initial();
  auto scratch = s;
  sem::Label label;
  for (auto _ : state)
    verify::detail::for_each_successor(
        sys, s, scratch, sem::LabelMode::Quiet, label,
        [](auto& succ, sem::Label&, ComponentSet&) {
          benchmark::DoNotOptimize(succ);
          return true;
        });
}
BENCHMARK(BM_RendezvousExpandInPlace)->Arg(4)->Arg(16)->Arg(64);

// Quiet labels, as the checker's hot path generates them.
void BM_AsyncSuccessors(benchmark::State& state) {
  runtime::AsyncSystem sys(refined_migratory(),
                           static_cast<int>(state.range(0)));
  auto s = sys.initial();
  for (auto _ : state)
    benchmark::DoNotOptimize(sys.successors(s, sem::LabelMode::Quiet));
}
BENCHMARK(BM_AsyncSuccessors)->Arg(4)->Arg(16)->Arg(64);

const refine::RefinedProtocol& refined_invalidate() {
  static const ir::Protocol p = protocols::make_invalidate();
  static const refine::RefinedProtocol rp = refine::refine(p);
  return rp;
}

// The checkers' expansion, as bfs_reach runs it per state: decode into one
// reused target (with its component marks), walk every unblocked action
// through one scratch state and splice each successor's encoding from the
// parent's. Over a fixed sample of reachable states — the first 1,000 BFS
// states of async invalidate N=4 — so channels, buffers and transients are
// as a real run sees them. Items are edges.
void BM_AsyncExpandInPlace(benchmark::State& state) {
  runtime::AsyncSystem sys(refined_invalidate(), 4);
  std::vector<std::vector<std::byte>> sample;
  {
    verify::CollapsedStateSet seen(64u << 20);
    ByteSink sink;
    sys.encode(sys.initial(), sink);
    (void)seen.insert(sink.bytes());
    sample.push_back(sink.take());
    for (std::size_t cur = 0; sample.size() < 1000; ++cur) {
      ByteSource src(sample[cur]);
      for (auto& [succ, label] :
           sys.successors(sys.decode(src), sem::LabelMode::Quiet)) {
        sink.clear();
        sys.encode(succ, sink);
        if (sample.size() < 1000 &&
            seen.insert(sink.bytes()).outcome ==
                InsertOutcome::Inserted)
          sample.push_back(sink.take());
      }
    }
  }
  auto parent = sys.initial();
  auto scratch = parent;
  std::vector<ComponentMark> marks;
  sem::Label label;
  ComponentSink sink(/*record=*/false);
  std::int64_t edges = 0;
  for (auto _ : state)
    for (const auto& bytes : sample) {
      ByteSource src(bytes);
      sys.decode_into(src, parent, &marks);
      verify::detail::for_each_successor(
          sys, parent, scratch, sem::LabelMode::Quiet, label,
          [&](auto& succ, sem::Label&, ComponentSet& touched) {
            verify::detail::encode_successor(sys, succ, touched,
                                             verify::SymmetryMode::Off, bytes,
                                             marks, sink);
            benchmark::DoNotOptimize(sink.bytes());
            ++edges;
            return true;
          });
    }
  state.SetItemsProcessed(edges);
}
BENCHMARK(BM_AsyncExpandInPlace);

void BM_AsyncEncode(benchmark::State& state) {
  runtime::AsyncSystem sys(refined_migratory(),
                           static_cast<int>(state.range(0)));
  auto s = sys.initial();
  for (auto _ : state) {
    ByteSink sink;
    sys.encode(s, sink);
    benchmark::DoNotOptimize(sink.bytes());
  }
}
BENCHMARK(BM_AsyncEncode)->Arg(4)->Arg(64);

void BM_AsyncEncodeDecodeRoundTrip(benchmark::State& state) {
  runtime::AsyncSystem sys(refined_migratory(),
                           static_cast<int>(state.range(0)));
  auto s = sys.initial();
  for (auto _ : state) {
    ByteSink sink;
    sys.encode(s, sink);
    ByteSource src(sink.bytes());
    benchmark::DoNotOptimize(sys.decode(src));
  }
}
BENCHMARK(BM_AsyncEncodeDecodeRoundTrip)->Arg(4)->Arg(64);

// Decode into one reused target, as the checkers do per expanded state.
void BM_AsyncDecodeInto(benchmark::State& state) {
  runtime::AsyncSystem sys(refined_migratory(),
                           static_cast<int>(state.range(0)));
  const auto bytes = verify::detail::encode_state(sys, sys.initial());
  auto target = sys.initial();
  for (auto _ : state) {
    ByteSource src(bytes);
    sys.decode_into(src, target);
    benchmark::DoNotOptimize(target);
  }
}
BENCHMARK(BM_AsyncDecodeInto)->Arg(4)->Arg(64);

void BM_HashBytes(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)),
                              std::byte{0x5a});
  for (auto _ : state) benchmark::DoNotOptimize(hash_bytes(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashBytes)->Arg(16)->Arg(64)->Arg(1024);

// Collapse-compression dictionary keys are mostly 1-4 bytes; the length-mixed
// finalizer keeps throughput flat across these sizes.
void BM_HashBytesShort(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)),
                              std::byte{0x5a});
  for (auto _ : state) benchmark::DoNotOptimize(hash_bytes(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashBytesShort)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_StateSetInsert(benchmark::State& state) {
  std::uint64_t i = 0;
  verify::CollapsedStateSet set(1u << 30);
  for (auto _ : state) {
    ByteSink sink;
    sink.u64(i++);
    sink.u64(i * 0x9e3779b9);
    benchmark::DoNotOptimize(set.insert(sink.bytes()));
  }
}
BENCHMARK(BM_StateSetInsert);

// One fingerprint per state instead of the full vector: the insert path the
// hash-compaction tier runs per successor, in both engines. Compare
// against BM_StateSetInsert for the per-state cost the tier removes. The
// threaded variant runs four inserters on ONE shared table (every insert
// fresh, every doubling drained under contention), as --jobs 4 does on
// each shard; its iterations are fixed so the table stays at 2^24 slots.
void BM_FingerprintInsert(benchmark::State& state) {
  static verify::MemoryBudget* budget = nullptr;
  static FingerprintTable<verify::MemoryBudget>* table = nullptr;
  if (state.thread_index() == 0) {
    budget = new verify::MemoryBudget(1u << 30);
    table = new FingerprintTable<verify::MemoryBudget>(*budget, 1024);
  }
  const auto tid = static_cast<std::uint64_t>(state.thread_index());
  std::uint64_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        table->insert(((tid << 48) | ++i) * 0x9e3779b97f4a7c15ull));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    delete table;
    delete budget;
  }
}
BENCHMARK(BM_FingerprintInsert);
BENCHMARK(BM_FingerprintInsert)->Threads(4)->Iterations(2'000'000);

// The external tier's steady-state insert path: a RAM-cache miss appended
// to a partition's pending run (one buffered 8-byte write plus the record).
// Compare against BM_FingerprintInsert for the per-miss cost of deferring
// the membership answer to disk.
void BM_PartitionFlush(benchmark::State& state) {
  verify::MemoryBudget budget(1u << 30);
  verify::ExternalVisitedSet::Config cfg;
  cfg.dir = temp_dir("ccref-bench-ext");
  cfg.partitions = static_cast<std::size_t>(state.range(0));
  // insert() never merges on its own (the engine drives resolve()), so the
  // watermark only sizes the charged sort scratch here.
  cfg.watermark = std::size_t{1} << 20;
  verify::ExternalVisitedSet set(budget, cfg);
  std::uint64_t i = 0;
  std::byte rec[32] = {};
  for (auto _ : state) {
    const std::uint64_t fp = ++i * 0x9e3779b97f4a7c15ull;
    benchmark::DoNotOptimize(set.insert(fp, i, rec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PartitionFlush)->Arg(1)->Arg(16)->ArgNames({"partitions"});

// One delayed-duplicate-detection pass: sort a watermark-sized pending
// batch and merge it against a history run of range(1) fingerprints — the
// two sequential disk passes the tier's amortized cost bound is built on.
// Half of each batch duplicates admitted states, half is fresh.
void BM_RunMerge(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto history = static_cast<std::size_t>(state.range(1));
  std::uint64_t fresh_total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    verify::MemoryBudget budget(1u << 30);
    verify::ExternalVisitedSet::Config cfg;
    cfg.dir = temp_dir("ccref-bench-ext");
    cfg.partitions = 1;
    cfg.watermark = batch;
    // Keep the RAM cache front small so the duplicate half of the batch
    // reaches the pending run instead of short-circuiting in RAM — the
    // merge itself is what is being measured.
    cfg.cache_slots = 1024;
    verify::ExternalVisitedSet set(budget, cfg);
    std::byte rec[16] = {};
    auto admit_all = [&] {
      return set.resolve(/*only_ripe=*/false,
                         [](std::uint32_t, std::uint64_t, std::uint64_t,
                            std::span<const std::byte>) {});
    };
    for (std::uint64_t v = 0; v < history; ++v)
      (void)set.insert((v + 1) * 0x9e3779b97f4a7c15ull, 0, rec);
    if (admit_all() == verify::ResolveOutcome::Failed) state.SkipWithError("io");
    // Pending batch: alternate a known-admitted and a fresh fingerprint.
    for (std::uint64_t v = 0; v < batch; ++v) {
      const std::uint64_t fp = (v & 1) ? (v / 2 + 1) * 0x9e3779b97f4a7c15ull
                                       : (history + v) * 0xc2b2ae3d27d4eb4full;
      (void)set.insert(fp ? fp : 1, 0, rec);
    }
    state.ResumeTiming();
    std::uint64_t fresh = 0;
    const auto ro = set.resolve(
        /*only_ripe=*/false, [&](std::uint32_t, std::uint64_t, std::uint64_t,
                                 std::span<const std::byte>) { ++fresh; });
    if (ro == verify::ResolveOutcome::Failed) state.SkipWithError("io");
    benchmark::DoNotOptimize(fresh);
    fresh_total += fresh;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  state.counters["fresh_per_batch"] =
      state.iterations()
          ? static_cast<double>(fresh_total) /
                static_cast<double>(state.iterations())
          : 0;
}
BENCHMARK(BM_RunMerge)
    ->ArgsProduct({{4096, 65536}, {0, 1 << 20}})
    ->ArgNames({"batch", "history"});

// Encode a real async state through a ComponentSink (marks recorded) vs. the
// plain ByteSink above — the marginal cost of boundary bookkeeping.
void BM_AsyncEncodeWithMarks(benchmark::State& state) {
  runtime::AsyncSystem sys(refined_migratory(),
                           static_cast<int>(state.range(0)));
  auto s = sys.initial();
  ComponentSink sink;
  for (auto _ : state) {
    sink.clear();
    sys.encode(s, sink);
    benchmark::DoNotOptimize(sink.bytes());
    benchmark::DoNotOptimize(sink.marks());
  }
}
BENCHMARK(BM_AsyncEncodeWithMarks)->Arg(4)->Arg(64);

// Insert throughput + bytes-per-state of the collapsed visited set against
// the raw baseline, over the real reachable set of the async migratory
// protocol at N = range(0). Counters report the achieved compression ratio.
void BM_CollapseInsert(benchmark::State& state) {
  runtime::AsyncSystem sys(refined_migratory(),
                           static_cast<int>(state.range(0)));
  const auto mode = state.range(1) ? verify::CompressionMode::Collapse
                                   : verify::CompressionMode::Off;
  // Pre-enumerate a batch of distinct reachable encodings so the timed loop
  // measures insertion, not successor generation.
  std::vector<std::vector<std::byte>> encs;
  std::vector<std::vector<ComponentMark>> all_marks;
  {
    verify::CollapsedStateSet dedup(64u << 20);
    ComponentSink sink;
    auto root = sys.initial();
    sys.encode(root, sink);
    (void)dedup.insert(sink.bytes());
    encs.emplace_back(sink.bytes().begin(), sink.bytes().end());
    all_marks.emplace_back(sink.marks().begin(), sink.marks().end());
    for (std::size_t cur = 0; cur < encs.size() && encs.size() < 20000;
         ++cur) {
      ByteSource src(encs[cur]);
      auto s = sys.decode(src);
      for (auto& [succ, label] : sys.successors(s, sem::LabelMode::Quiet)) {
        sink.clear();
        sys.encode(succ, sink);
        if (dedup.insert(sink.bytes()).outcome ==
            InsertOutcome::Inserted) {
          encs.emplace_back(sink.bytes().begin(), sink.bytes().end());
          all_marks.emplace_back(sink.marks().begin(), sink.marks().end());
        }
      }
    }
  }
  std::size_t stored = 0, raw = 0, states = 0;
  for (auto _ : state) {
    verify::CollapsedStateSet set(1u << 30, {.compress = mode});
    for (std::size_t i = 0; i < encs.size(); ++i)
      benchmark::DoNotOptimize(set.insert(encs[i], all_marks[i]));
    stored = set.stored_bytes();
    raw = set.raw_bytes();
    states = set.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encs.size()));
  state.counters["bytes_per_state"] =
      states ? static_cast<double>(stored) / static_cast<double>(states) : 0;
  state.counters["raw_bytes_per_state"] =
      states ? static_cast<double>(raw) / static_cast<double>(states) : 0;
  state.counters["compression_ratio"] =
      stored ? static_cast<double>(raw) / static_cast<double>(stored) : 0;
}
BENCHMARK(BM_CollapseInsert)
    ->ArgsProduct({{3, 4}, {0, 1}})
    ->ArgNames({"n", "collapse"});

// ---- lock-free engine hot paths ---------------------------------------
//
// The three paths the parallel engine leans on: contended CAS
// insert-if-absent into one shared table, owner/thief traffic on a
// Chase–Lev deque, and the COLLAPSE dictionary's lock-free hit probe.
// ->Threads(k) runs the SAME shared structure from k benchmark threads;
// thread 0 owns setup/teardown (google-benchmark barriers the timed loop).

void BM_CasInsertContended(benchmark::State& state) {
  static verify::MemoryBudget* budget = nullptr;
  static AtomicByteTable<verify::MemoryBudget>* table = nullptr;
  if (state.thread_index() == 0) {
    budget = new verify::MemoryBudget(1u << 30);
    table = new AtomicByteTable<verify::MemoryBudget>(
        *budget, /*initial_slots=*/1 << 16, /*chunk0_bytes=*/1 << 20,
        RecordLink::None);
  }
  // Each thread inserts a disjoint fresh-key stream: every operation takes
  // the full claim-CAS / publish path, and all threads contend on the same
  // slot array, pool bump pointer, and budget counter.
  std::uint64_t i = 0;
  std::byte key[16] = {};
  const auto tid = static_cast<std::uint64_t>(state.thread_index());
  for (auto _ : state) {
    const std::uint64_t v = (tid << 48) | i++;
    std::memcpy(key, &v, sizeof(v));
    benchmark::DoNotOptimize(table->insert(key, hash_bytes(key)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    delete table;
    delete budget;
  }
}
BENCHMARK(BM_CasInsertContended)->Threads(1)->Threads(2)->Threads(4);

void BM_StealThroughput(benchmark::State& state) {
  static WorkStealDeque<std::uint64_t*>* dq = nullptr;
  static std::uint64_t dummy = 42;
  if (state.thread_index() == 0) dq = new WorkStealDeque<std::uint64_t*>(64);
  // Thread 0 is the owner (push then pop — the deque hovers near empty, so
  // pop and steal keep racing the last-item CAS, the worst case); the rest
  // are thieves hammering steal().
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      dq->push(&dummy);
      benchmark::DoNotOptimize(dq->pop());
    } else {
      benchmark::DoNotOptimize(dq->steal());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (state.thread_index() == 0) delete dq;
}
BENCHMARK(BM_StealThroughput)->Threads(2)->Threads(4);

void BM_CollapseLookupHit(benchmark::State& state) {
  static verify::MemoryBudget* budget = nullptr;
  static verify::ConcurrentDict* dict = nullptr;
  static std::vector<std::vector<std::byte>> keys;
  if (state.thread_index() == 0) {
    budget = new verify::MemoryBudget(1u << 30);
    bool alive = false;
    dict = new verify::ConcurrentDict(*budget, /*chunk0=*/4096, &alive);
    // Pre-intern a realistic component population (COLLAPSE keys are a few
    // bytes each); the timed loop then exercises the pure hit path.
    keys.clear();
    for (std::uint64_t v = 0; v < 512; ++v) {
      std::vector<std::byte> k(4);
      std::memcpy(k.data(), &v, 4);
      (void)dict->intern(k, hash_bytes(k));
      keys.push_back(std::move(k));
    }
  }
  std::uint64_t i = static_cast<std::uint64_t>(state.thread_index()) * 7919;
  for (auto _ : state) {
    const auto& k = keys[i++ % keys.size()];
    benchmark::DoNotOptimize(dict->intern(k, hash_bytes(k)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    delete dict;
    delete budget;
  }
}
BENCHMARK(BM_CollapseLookupHit)->Threads(1)->Threads(4);

// ---- discrete-event simulator hot paths -------------------------------

// Steady-state hold pattern: pop the minimum, reschedule it a small random
// increment ahead — the simulator's per-event scheduling cost at a standing
// population of range(0) events (one push + one pop per iteration).
void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  const auto population = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < population; ++i) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    q.push(x % 512, static_cast<std::uint32_t>(i));
  }
  std::uint64_t t = 0;
  std::uint32_t h = 0;
  for (auto _ : state) {
    const bool ok = q.pop(t, h);
    benchmark::DoNotOptimize(ok);
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    q.push(t + 1 + x % 64, h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(4096)->Arg(1 << 16);

// Recycled alloc/release through the intrusive free list with a standing
// live population — after warm-up every event allocation the engine makes
// takes this path (no heap traffic).
void BM_EventPoolAlloc(benchmark::State& state) {
  struct Ev {
    std::uint64_t time;
    std::uint32_t a, b;
  };
  EventPool<Ev> pool;
  std::vector<EventPool<Ev>::Handle> live;
  for (int i = 0; i < 255; ++i) live.push_back(pool.alloc());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto h = pool.alloc();
    pool[h].time = i;
    benchmark::DoNotOptimize(pool[h]);
    pool.release(live[i % live.size()]);
    live[i % live.size()] = h;
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventPoolAlloc);

void BM_ExploreMigratoryRendezvous(benchmark::State& state) {
  for (auto _ : state) {
    sem::RendezvousSystem sys(migratory(), static_cast<int>(state.range(0)));
    verify::CheckOptions<sem::RendezvousSystem> opts;
    opts.want_trace = false;
    benchmark::DoNotOptimize(verify::explore(sys, opts));
  }
}
BENCHMARK(BM_ExploreMigratoryRendezvous)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

// Explicit main instead of BENCHMARK_MAIN(): tags the run context with the
// engine-configuration fields the other benches' JSON rows carry, so swept
// outputs stay joinable on (engine, jobs, symmetry, compress), and with the
// same provenance (commit, build type, cpu, hardware_concurrency).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("engine", "seq");
  benchmark::AddCustomContext("jobs", "1");
  benchmark::AddCustomContext("symmetry", "off");
  benchmark::AddCustomContext("compress", "off");
  benchmark::AddCustomContext("commit", build_commit());
  benchmark::AddCustomContext("build_type", build_type());
  benchmark::AddCustomContext("cpu", host_cpu());
  benchmark::AddCustomContext(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

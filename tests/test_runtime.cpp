// Tests for the asynchronous semantics (Tables 1 and 2), in-place stepping
// of its actions, the §4 abstraction function and Equation-1 simulation
// relation, and the behavioural differences between refinement variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <set>
#include <utility>

#include "ir/builder.hpp"
#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/snoop.hpp"
#include "refine/abstraction.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "sim/des.hpp"
#include "support/rng.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

using refine::Options;
using runtime::AsyncState;
using runtime::AsyncSystem;
using runtime::Meta;
using sem::RendezvousSystem;

// AsyncSystem points into its RefinedProtocol, so it is built from
// lvalues only: a temporary would dangle once the full expression ends.
template <class R>
concept BuildsAsync = requires(R&& r) { AsyncSystem(std::forward<R>(r), 2); };
static_assert(BuildsAsync<const refine::RefinedProtocol&>);
static_assert(BuildsAsync<refine::RefinedProtocol&>);
static_assert(!BuildsAsync<refine::RefinedProtocol>);
static_assert(!BuildsAsync<refine::RefinedProtocol&&>);

TEST(Async, InitialStateMirrorsProtocol) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  AsyncState s = sys.initial();
  EXPECT_FALSE(s.home.transient);
  EXPECT_EQ(s.home.state, p.home.initial);
  EXPECT_TRUE(s.home.buffer.empty());
  for (const auto& r : s.remotes) {
    EXPECT_FALSE(r.transient);
    EXPECT_FALSE(r.buffer.has_value());
  }
}

TEST(Async, EncodeDecodeRoundTrip) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  // Walk a few deterministic steps, round-tripping each state.
  AsyncState s = sys.initial();
  for (int step = 0; step < 20; ++step) {
    ByteSink sink;
    sys.encode(s, sink);
    ByteSource src(sink.bytes());
    AsyncState back = sys.decode(src);
    ASSERT_TRUE(src.exhausted());
    ASSERT_EQ(s, back) << "step " << step << ": " << sys.describe(s);
    auto succs = sys.successors(s);
    if (succs.empty()) break;
    s = succs[step % succs.size()].first;
  }
}

TEST(Async, FirstStepsAreRemoteRequests) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  auto succs = sys.successors(sys.initial());
  // Initially: each remote can initiate its fused req; nothing else.
  ASSERT_EQ(succs.size(), 2u);
  for (const auto& [next, label] : succs) {
    EXPECT_EQ(label.sent_req, 1);
    EXPECT_EQ(label.decision, "req");
    EXPECT_FALSE(label.completes_rendezvous);
  }
  // After sending, the remote is transient and its request is in flight.
  const AsyncState& s1 = succs[0].first;
  EXPECT_TRUE(s1.remotes[0].transient);
  ASSERT_EQ(s1.up[0].size(), 1u);
  EXPECT_EQ(s1.up[0].front().meta, Meta::Req);
}

/// Drive one full fused req/gr transaction by hand and count messages:
/// exactly 2 (the §3.3 result), with no acks.
TEST(Async, FusedGrantTakesTwoMessages) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 1);
  AsyncState s = sys.initial();
  int req = 0, ack = 0, nack = 0, repl = 0, steps = 0;
  // Deterministically follow the only enabled transition until r0 is in V.
  const ir::StateId rV = p.remote.find_state("V");
  while (s.remotes[0].state != rV || s.remotes[0].transient) {
    auto succs = sys.successors(s);
    ASSERT_EQ(succs.size(), 1u) << sys.describe(s);
    req += succs[0].second.sent_req;
    ack += succs[0].second.sent_ack;
    nack += succs[0].second.sent_nack;
    repl += succs[0].second.sent_repl;
    s = succs[0].first;
    ASSERT_LT(++steps, 20);
  }
  EXPECT_EQ(req, 1);   // the fused req
  EXPECT_EQ(repl, 1);  // gr doubles as the ack
  EXPECT_EQ(ack, 0);
  EXPECT_EQ(nack, 0);
}

/// Without fusion the same transaction costs 4 messages (req+ack, gr+ack).
TEST(Async, UnfusedGrantTakesFourMessages) {
  auto p = protocols::make_migratory();
  Options opts;
  opts.request_reply_fusion = false;
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 1);
  AsyncState s = sys.initial();
  int req = 0, ack = 0, repl = 0, steps = 0;
  const ir::StateId rV = p.remote.find_state("V");
  while (s.remotes[0].state != rV || s.remotes[0].transient) {
    auto succs = sys.successors(s);
    ASSERT_GE(succs.size(), 1u) << sys.describe(s);
    req += succs[0].second.sent_req;
    ack += succs[0].second.sent_ack;
    repl += succs[0].second.sent_repl;
    s = succs[0].first;
    ASSERT_LT(++steps, 30);
  }
  EXPECT_EQ(req, 2);
  EXPECT_EQ(ack, 2);
  EXPECT_EQ(repl, 0);
}

// ---- full exploration -------------------------------------------------------

struct AsyncCase {
  int n;
  bool fusion;
  const char* name;
};

class AsyncMigratory : public testing::TestWithParam<AsyncCase> {};

TEST_P(AsyncMigratory, SafeDeadlockFreeAndSound) {
  const auto& param = GetParam();
  auto p = protocols::make_migratory();
  Options opts;
  opts.request_reply_fusion = param.fusion;
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, param.n);
  RendezvousSystem rv(p, param.n);

  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 256u << 20;
  copts.invariant = protocols::migratory_async_invariant(p, param.n);
  copts.edge_check = refine::make_simulation_checker(sys, rv);
  auto result = verify::explore(sys, copts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << verify::to_string(result.status) << ": " << result.violation
      << (result.trace.empty() ? "" : "\n" + result.trace.back());
  EXPECT_GT(result.states, param.n >= 2 ? 100u : 5u);
}

// gtest lists each case with a byte dump of its parameter, padding included.
// A constant-initialised static array zero-fills that padding, so the listed
// names are the same on every run (stack temporaries leave it indeterminate).
constexpr AsyncCase kAsyncCases[] = {{1, true, "n1"},
                                     {2, true, "n2"},
                                     {1, false, "n1nofuse"},
                                     {2, false, "n2nofuse"}};

INSTANTIATE_TEST_SUITE_P(Cases, AsyncMigratory, testing::ValuesIn(kAsyncCases),
                         [](const auto& info) { return info.param.name; });

TEST(AsyncExplore, InvalidateN2SoundAndSafe) {
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  RendezvousSystem rv(p, 2);
  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 512u << 20;
  copts.invariant = protocols::invalidate_async_invariant(p, 2);
  copts.edge_check = refine::make_simulation_checker(sys, rv);
  auto result = verify::explore(sys, copts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << result.violation
      << (result.trace.empty() ? "" : "\n" + result.trace.back());
}

TEST(AsyncExplore, AsyncBlowsUpRelativeToRendezvous) {
  // The essence of Table 3: the asynchronous state space dwarfs the
  // rendezvous one for the same protocol and N.
  auto p = protocols::make_migratory();
  auto rv_result = verify::explore(RendezvousSystem(p, 2));
  auto rp = refine::refine(p);
  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 256u << 20;
  auto as_result = verify::explore(AsyncSystem(rp, 2), copts);
  ASSERT_EQ(rv_result.status, verify::Status::Ok);
  ASSERT_EQ(as_result.status, verify::Status::Ok);
  EXPECT_GT(as_result.states, rv_result.states * 10);
}

TEST(AsyncExplore, HandDesignElideAckSafe) {
  // The Avalanche hand design (no ack after LR) is still safe, verified
  // directly on the asynchronous state space.
  auto p = protocols::make_migratory();
  Options opts;
  opts.elide_ack = {"LR"};
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 2);
  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 256u << 20;
  copts.invariant = protocols::migratory_async_invariant(p, 2);
  auto result = verify::explore(sys, copts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << result.violation
      << (result.trace.empty() ? "" : "\n" + result.trace.back());
}

TEST(AsyncExplore, LargerBufferStillSound) {
  auto p = protocols::make_migratory();
  Options opts;
  opts.home_buffer_capacity = 4;
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 2);
  RendezvousSystem rv(p, 2);
  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 512u << 20;
  copts.invariant = protocols::migratory_async_invariant(p, 2);
  copts.edge_check = refine::make_simulation_checker(sys, rv);
  auto result = verify::explore(sys, copts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << result.violation
      << (result.trace.empty() ? "" : "\n" + result.trace.back());
}

TEST(AsyncExplore, DataDomainPropagatesValues) {
  auto p = protocols::make_migratory({.data_domain = 2});
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  RendezvousSystem rv(p, 2);
  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 512u << 20;
  copts.invariant = protocols::migratory_async_invariant(p, 2);
  copts.edge_check = refine::make_simulation_checker(sys, rv);
  auto result = verify::explore(sys, copts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << result.violation
      << (result.trace.empty() ? "" : "\n" + result.trace.back());
}

// ---- deadlock on the refined engines ----------------------------------------

// The home accepts one `m` and then waits in a communication state whose only
// guard is false (Checker.DeadlockDetected's protocol). Refined, the remote's
// request is admitted, completed and acked; once the ack is delivered no
// action of any process is enabled.
ir::Protocol dead_protocol() {
  ir::ProtocolBuilder b("dead");
  ir::MsgId M = b.msg("m");
  auto& h = b.home();
  h.var("j", ir::Type::Node);
  h.comm("A").initial();
  h.comm("STUCK");
  h.input("A", M).from_any().go("STUCK");
  h.input("STUCK", M).from_any().when(ir::ex::boolean(false)).go("STUCK");
  auto& r = b.remote();
  r.comm("S");
  r.comm("DONE");
  r.output("S", M).to_home().go("DONE");
  r.input("DONE", M).from_home().go("DONE");
  return b.build();
}

TEST(AsyncDeadlock, EveryEngineReportsTheSameDeadlock) {
  namespace fs = std::filesystem;
  const ir::Protocol p = dead_protocol();
  const auto rp = refine::refine(p);
  const AsyncSystem sys(rp, 1);
  verify::CheckOptions<AsyncSystem> opts;

  const auto seq = verify::explore(sys, opts);
  ASSERT_EQ(seq.status, verify::Status::Deadlock);
  EXPECT_EQ(seq.violation.rfind("deadlock: no enabled transition in ", 0), 0u)
      << seq.violation;
  // initial, request sent, request admitted, rendezvous completed, ack
  // delivered: the only path there is.
  EXPECT_EQ(seq.trace.size(), 5u);
  EXPECT_EQ(seq.states, 5u);

  const auto par = verify::par_explore(sys, opts, 2);
  EXPECT_EQ(par.status, verify::Status::Deadlock);
  EXPECT_EQ(par.violation, seq.violation);
  EXPECT_EQ(par.trace, seq.trace);

  const fs::path dir = fs::path(testing::TempDir()) / "ccref-async-deadlock";
  fs::remove_all(dir);
  auto ext_opts = opts;
  ext_opts.external.dir = dir.string();
  const auto ext = verify::explore(sys, ext_opts);
  fs::remove_all(dir);
  EXPECT_EQ(ext.status, verify::Status::Deadlock);
  EXPECT_EQ(ext.violation, seq.violation);
  EXPECT_EQ(ext.trace, seq.trace);

  // Without deadlock detection the same graph is simply complete.
  opts.detect_deadlock = false;
  const auto off = verify::explore(sys, opts);
  EXPECT_EQ(off.status, verify::Status::Ok);
  EXPECT_EQ(off.states, seq.states);
  EXPECT_EQ(verify::par_explore(sys, opts, 2).status, verify::Status::Ok);
}

// ---- in-place stepping ------------------------------------------------------

// A seeded random walk driven by the simulator's choice policy (des_step):
// every in-place step must land on one of successors()' edges with the same
// label, and a step that applies nothing must leave the state untouched.
// Every state the walk applies a step to is also expanded as the checkers
// expand it (expect_spliced_expansion).

/// The bytes of each component of an encoding, cut at its marks.
std::vector<std::vector<std::byte>> components_of(
    std::span<const std::byte> bytes, std::span<const ComponentMark> marks) {
  std::vector<std::vector<std::byte>> out;
  std::uint32_t start = 0;
  for (const ComponentMark& m : marks) {
    out.emplace_back(bytes.begin() + start, bytes.begin() + m.end);
    start = m.end;
  }
  return out;
}

bool same_marks(std::span<const ComponentMark> a,
                std::span<const ComponentMark> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool is_broadcast(const runtime::Action&) { return false; }
bool is_broadcast(const sem::RvAction& a) {
  return a.kind == sem::RvAction::Kind::Bcast;
}

/// Expand `parent` through verify::detail::for_each_successor, as the
/// checkers do, into the reused `scratch`. Every edge must equal
/// successors()' edge at the same position; only a rendezvous broadcast
/// widens touched() to every component; otherwise every component whose
/// bytes changed must be in touched(), the encoding spliced from the
/// parent's must equal encode() in bytes and in marks, and restoring the
/// touched components must give the parent back. The walk's own last
/// restore must leave `scratch` equal to the parent (a broadcast leaves it
/// to the next walk's full copy). Returns the largest touched id.
template <class Sys>
int expect_spliced_expansion(const Sys& sys,
                             const typename Sys::State& parent,
                             typename Sys::State& scratch,
                             const std::string& where) {
  ComponentSink whole, spliced;
  sys.encode(parent, whole);
  const std::vector<std::byte> parent_bytes(whole.bytes().begin(),
                                            whole.bytes().end());
  std::vector<ComponentMark> marks;
  auto decoded = sys.initial();
  ByteSource src(parent_bytes);
  sys.decode_into(src, decoded, &marks);
  EXPECT_TRUE(same_marks(marks, whole.marks())) << where;
  const auto parent_parts = components_of(parent_bytes, marks);

  std::vector<bool> broadcast;  // per unblocked action, in walk order
  sys.for_each_action(parent, [&](const auto& a) {
    if (!a.blocked) broadcast.push_back(is_broadcast(a));
    return true;
  });
  const auto edges = sys.successors(parent, sem::LabelMode::Quiet);
  EXPECT_EQ(broadcast.size(), edges.size()) << where;
  std::size_t e = 0;
  int max_id = -1;
  sem::Label label;
  const bool done = verify::detail::for_each_successor(
      sys, parent, scratch, sem::LabelMode::Quiet, label,
      [&](auto& succ, sem::Label&, ComponentSet& touched) {
        const std::string at = where + " edge " + std::to_string(e);
        if (e >= edges.size() || succ != edges[e].first) {
          ADD_FAILURE() << at << " differs from successors()";
          return false;
        }
        EXPECT_EQ(touched.all, broadcast[e]) << at;
        ++e;
        if (touched.all) return true;
        whole.clear();
        sys.encode(succ, whole);
        const auto parts = components_of(whole.bytes(), whole.marks());
        for (std::size_t c = 0; c < parts.size(); ++c) {
          if (parts[c] != parent_parts[c]) {
            EXPECT_TRUE(std::count(touched.id, touched.id + touched.count, c))
                << at << ": component " << c << " changed, not touched";
          }
        }
        spliced.clear();
        verify::detail::splice_encode(sys, succ, touched, parent_bytes, marks,
                                      spliced);
        EXPECT_TRUE(std::ranges::equal(spliced.bytes(), whole.bytes())) << at;
        EXPECT_TRUE(same_marks(spliced.marks(), whole.marks())) << at;
        auto restored = succ;
        sys.restore(restored, parent, touched);
        EXPECT_EQ(restored, parent) << at << ": restore";
        if (touched.count > 0)
          max_id = std::max<int>(max_id, touched.id[touched.count - 1]);
        return true;
      });
  EXPECT_TRUE(done) << where;
  EXPECT_EQ(e, edges.size()) << where;
  if (!edges.empty() && !broadcast.back()) {
    EXPECT_EQ(scratch, parent) << where << ": restore";
  }
  return max_id;
}

struct WalkCase {
  std::string name;
  ir::Protocol (*make)();
  Options opts;
  int n;

  friend void PrintTo(const WalkCase& c, std::ostream* os) { *os << c.name; }
};

std::vector<WalkCase> walk_cases() {
  Options no_ack_buffer;
  no_ack_buffer.ack_buffer = false;
  Options no_progress_buffer;
  no_progress_buffer.progress_buffer = false;
  Options unfused;
  unfused.request_reply_fusion = false;
  Options elide_ack;
  elide_ack.elide_ack = {"LR"};
  Options tight_channels;
  tight_channels.channel_capacity = 1;
  auto migratory = +[] { return protocols::make_migratory(); };
  auto invalidate = +[] { return protocols::make_invalidate(); };
  const std::vector<WalkCase> configs = {
      {"Migratory", migratory, {}, 0},
      {"MigratoryNoAckBuffer", migratory, no_ack_buffer, 0},
      {"MigratoryNoProgressBuffer", migratory, no_progress_buffer, 0},
      {"MigratoryUnfused", migratory, unfused, 0},
      {"MigratoryElideAck", migratory, elide_ack, 0},
      {"MigratoryTightChannels", migratory, tight_channels, 0},
      {"Invalidate", invalidate, {}, 0},
      {"InvalidateNoAckBuffer", invalidate, no_ack_buffer, 0},
      {"InvalidateNoProgressBuffer", invalidate, no_progress_buffer, 0},
      {"InvalidateUnfused", invalidate, unfused, 0},
      {"LockServer", &protocols::make_lock_server, {}, 0},
      {"Mesi", &protocols::make_mesi, {}, 0},
      {"MesiTightChannels", &protocols::make_mesi, tight_channels, 0},
      {"Moesi", &protocols::make_moesi, {}, 0},
      {"Mesif", &protocols::make_mesif, {}, 0},
      {"Dragon", &protocols::make_dragon, {}, 0},
  };
  std::vector<WalkCase> out;
  for (const WalkCase& c : configs)
    for (int n : {2, 3}) {
      out.push_back(c);
      out.back().name += "N" + std::to_string(n);
      out.back().n = n;
    }
  return out;
}

// Admits a pseudo-random three quarters of the (remote, decision) pairs.
struct RandomGate final : sim::DecisionGate {
  explicit RandomGate(std::uint64_t seed) : salt(seed) {}
  [[nodiscard]] bool allows(int r, const sim::Decision& d) const override {
    return d.label.empty() ||
           (std::hash<std::string>{}(d.label) + salt + r) % 4 != 0;
  }
  std::uint64_t salt;
};

class InPlaceWalk : public testing::TestWithParam<WalkCase> {};

TEST_P(InPlaceWalk, EveryStepIsASuccessor) {
  const WalkCase& param = GetParam();
  const ir::Protocol p = param.make();
  const auto rp = refine::refine(p, param.opts);
  const AsyncSystem sys(rp, param.n);
  auto bytes = [&](const AsyncState& st) {
    ByteSink sink;
    sys.encode(st, sink);
    return sink.take();
  };

  Rng rng(0xc0ffee + param.n);
  AsyncState s = sys.initial();
  sem::Label label;
  runtime::SendLog log;
  int applied = 0, blocked = 0;
  // One decode_into target for the whole walk, so every decode lands on the
  // previous step's state: the optionals must engage and reset, and the
  // vectors shrink and grow, exactly as a fresh decode() would build them.
  AsyncState target = sys.initial();
  AsyncState scratch = sys.initial();  // the expansions' reused successor
  int txn_flips = 0, buffer_flips = 0;
  for (int step = 0; step < 3000; ++step) {
    const auto succs = sys.successors(s);
    if (succs.empty()) break;  // a wedged ablation: nothing left to compare

    // A random part with something to deliver or decide, and a random gate
    // over the controllable decisions (the empty decision always passes).
    std::vector<std::pair<sim::Part, int>> parts = {{sim::Part::Home, 0}};
    for (int i = 0; i < param.n; ++i) {
      if (!s.up[i].empty()) parts.emplace_back(sim::Part::DeliverUp, i);
      if (!s.down[i].empty()) parts.emplace_back(sim::Part::DeliverDown, i);
      parts.emplace_back(sim::Part::Remote, i);
    }
    const auto [part, i] = parts[rng.below(parts.size())];
    const RandomGate gate{rng.next()};

    const AsyncState before = s;
    const auto before_bytes = bytes(s);
    const sim::StepResult r =
        sim::des_step(sys, s, part, i, gate, label, &log);
    if (r != sim::StepResult::Applied) {
      blocked += r == sim::StepResult::Blocked;
      ASSERT_EQ(bytes(s), before_bytes) << "step " << step;
      ASSERT_EQ(s, before) << "step " << step;
      continue;
    }
    ++applied;
    expect_spliced_expansion(sys, before, scratch,
                             "step " + std::to_string(step));
    if (testing::Test::HasFailure()) return;
    const auto after = bytes(s);
    {
      txn_flips += target.home.txn.has_value() != s.home.txn.has_value();
      for (int j = 0; j < param.n; ++j)
        buffer_flips += target.remotes[j].buffer.has_value() !=
                        s.remotes[j].buffer.has_value();
      ByteSource into(after), fresh(after);
      sys.decode_into(into, target);
      ASSERT_EQ(target, sys.decode(fresh)) << "step " << step;
      ASSERT_EQ(target, s) << "step " << step;
      ASSERT_EQ(bytes(target), after) << "step " << step;
    }
    bool found = false;
    for (const auto& [next, l] : succs)
      if (bytes(next) == after &&
          l.completes_rendezvous == label.completes_rendezvous &&
          l.sent_req == label.sent_req && l.sent_ack == label.sent_ack &&
          l.sent_nack == label.sent_nack && l.sent_repl == label.sent_repl &&
          l.actor == label.actor && l.granted_to == label.granted_to &&
          l.decision == label.decision) {
        found = true;
        break;
      }
    ASSERT_TRUE(found) << "step " << step << " is no successor edge:\n  "
                       << sys.describe(before) << "\n  -> "
                       << sys.describe(s);
    // The send log names every message the label counts, plus bus snoops.
    int logged = 0;
    for (int e = 0; e < log.count; ++e) {
      const Meta meta = log.e[e].meta;
      logged += meta != Meta::Snoop && meta != Meta::SnoopAck;
    }
    ASSERT_EQ(logged, label.messages_sent()) << "step " << step;
  }
  EXPECT_GT(applied, 100);
  // Bus protocols open and commit transactions and park snoops in remote
  // buffers over and over.
  if (p.topology == ir::Topology::Bus) {
    EXPECT_GT(txn_flips, 0);
    EXPECT_GT(buffer_flips, 0);
  }
  // One-message channels make capacity-blocked steps common.
  if (param.opts.channel_capacity == 1) {
    EXPECT_GT(blocked, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shipped, InPlaceWalk, testing::ValuesIn(walk_cases()),
    [](const auto& info) { return info.param.name; });

TEST(InPlaceExpansion, MigratoryN64TouchesComponentsPast63) {
  // 193 components: touched sets are id lists, not a 64-bit mask. Expand
  // the first BFS states, each checked as in the walk above.
  const auto p = protocols::make_migratory();
  const auto rp = refine::refine(p);
  const AsyncSystem sys(rp, 64);
  ASSERT_EQ(sys.num_components(), 193);
  std::vector<AsyncState> queue{sys.initial()};
  std::set<std::vector<std::byte>> seen;
  AsyncState scratch = sys.initial();
  int max_id = -1;
  for (std::size_t cur = 0; cur < queue.size() && cur < 40; ++cur) {
    const AsyncState parent = queue[cur];
    max_id = std::max(max_id, expect_spliced_expansion(
                                  sys, parent, scratch,
                                  "state " + std::to_string(cur)));
    if (testing::Test::HasFailure()) return;
    for (auto& [succ, l] : sys.successors(parent, sem::LabelMode::Quiet)) {
      ByteSink sink;
      sys.encode(succ, sink);
      if (seen.insert(sink.take()).second) queue.push_back(std::move(succ));
    }
  }
  EXPECT_GT(max_id, 63);
}

TEST(InPlaceExpansion, EveryReachableRendezvousStateSplices) {
  // The rendezvous level on the checkers' expansion: every reachable state
  // of every shipped protocol, each checked as in the walk above.
  const std::vector<std::pair<const char*, ir::Protocol (*)()>> shipped = {
      {"migratory", +[] { return protocols::make_migratory(); }},
      {"invalidate", +[] { return protocols::make_invalidate(); }},
      {"lock_server", &protocols::make_lock_server},
      {"mesi", &protocols::make_mesi},
      {"moesi", &protocols::make_moesi},
      {"mesif", &protocols::make_mesif},
      {"dragon", &protocols::make_dragon},
  };
  for (const auto& [name, make] : shipped)
    for (int n : {2, 3}) {
      const ir::Protocol p = make();
      const RendezvousSystem sys(p, n);
      auto bytes = [&](const sem::RvState& st) {
        ByteSink sink;
        sys.encode(st, sink);
        return sink.take();
      };
      std::vector<sem::RvState> queue{sys.initial()};
      std::set<std::vector<std::byte>> seen{bytes(queue[0])};
      sem::RvState scratch = sys.initial();
      int broadcasts = 0;
      for (std::size_t cur = 0; cur < queue.size(); ++cur) {
        const sem::RvState parent = queue[cur];
        expect_spliced_expansion(sys, parent, scratch,
                                 std::string(name) + " n=" +
                                     std::to_string(n) + " state " +
                                     std::to_string(cur));
        if (testing::Test::HasFailure()) return;
        for (auto& [succ, l] : sys.successors(parent)) {
          broadcasts += l.text.ends_with("-> *");
          if (seen.insert(bytes(succ)).second)
            queue.push_back(std::move(succ));
        }
      }
      EXPECT_GT(queue.size(), 4u) << name << " n=" << n;
      // The bus family's broadcasts are among the edges checked.
      if (p.topology == ir::Topology::Bus) {
        EXPECT_GT(broadcasts, 0) << name << " n=" << n;
      }
    }
}

// ---- abstraction ------------------------------------------------------------

TEST(Abstraction, InitialMapsToInitial) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  RendezvousSystem rv(p, 2);
  auto a = refine::abstract(sys, sys.initial());
  ByteSink sa, sb;
  rv.encode(a, sa);
  rv.encode(rv.initial(), sb);
  EXPECT_TRUE(std::equal(sa.bytes().begin(), sa.bytes().end(),
                         sb.bytes().begin(), sb.bytes().end()));
}

TEST(Abstraction, InFlightRequestIsDiscarded) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 1);
  // r0 sends its req: concrete state has r0 transient; abs maps it back.
  auto succs = sys.successors(sys.initial());
  ASSERT_EQ(succs.size(), 1u);
  auto a = refine::abstract(sys, succs[0].first);
  EXPECT_EQ(a.remotes[0].state, p.remote.find_state("I"));
  EXPECT_EQ(a.home.state, p.home.find_state("F"));
}

TEST(Abstraction, RejectsElideAckVariants) {
  auto p = protocols::make_migratory();
  refine::Options opts;
  opts.elide_ack = {"LR"};
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 1);
  EXPECT_DEATH((void)refine::abstract(sys, sys.initial()), "elide-ack");
}

}  // namespace
}  // namespace ccref

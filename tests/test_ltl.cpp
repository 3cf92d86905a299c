// Unit tests for the LTL subsystem: parser round-trips and errors, NNF
// normalization, the GPVW tableau translation, and the fair-lasso engine on
// tiny hand-built Kripke structures (no protocol involved, so verdicts are
// checkable by eye).
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "ltl/buchi.hpp"
#include "ltl/formula.hpp"
#include "ltl/parser.hpp"
#include "verify/liveness.hpp"

namespace ccref {
namespace {

using ltl::FormulaFactory;
using ltl::ParseResult;

std::string round_trip(const std::string& text) {
  FormulaFactory factory;
  ParseResult r = ltl::parse(text, factory);
  EXPECT_EQ(r.error, "") << text;
  if (!r.error.empty()) return "";
  return factory.to_string(r.formula, r.atoms);
}

TEST(LtlParser, RoundTrips) {
  // The renderer parenthesizes non-atomic operands and desugars `->`.
  EXPECT_EQ(round_trip("G F completion"), "G (F completion)");
  EXPECT_EQ(round_trip("G (requested(0) -> F granted(0))"),
            "G (!requested(0) || (F granted(0)))");
  EXPECT_EQ(round_trip("p U q"), "p U q");
  EXPECT_EQ(round_trip("!p || X q"), "!p || (X q)");
  EXPECT_EQ(round_trip("true U p"), "F p");  // sugar re-recognized
}

TEST(LtlParser, PrecedenceBindsAsDocumented) {
  // `->` lowest, then `||`, `&&`, `U`, unary. So a && b || c -> d U e
  // reads ((a && b) || c) -> (d U e).
  EXPECT_EQ(round_trip("a && b || c -> d U e"),
            "!((a && b) || c) || (d U e)");
  // U is right-associative.
  EXPECT_EQ(round_trip("a U b U c"), "a U (b U c)");
}

TEST(LtlParser, SharedSpellingsShareAtomIndices) {
  FormulaFactory factory;
  ParseResult r = ltl::parse("G (requested(0) -> F requested(0))", factory);
  ASSERT_EQ(r.error, "");
  EXPECT_EQ(r.atoms.size(), 1u);
  ASSERT_EQ(r.atoms[0].name, "requested");
  ASSERT_EQ(r.atoms[0].args.size(), 1u);
  EXPECT_EQ(r.atoms[0].args[0], "0");
}

TEST(LtlParser, ReportsErrors) {
  FormulaFactory factory;
  EXPECT_NE(ltl::parse("G (p", factory).error, "");       // unbalanced
  EXPECT_NE(ltl::parse("p q", factory).error, "");        // trailing input
  EXPECT_NE(ltl::parse("", factory).error, "");           // empty
  EXPECT_NE(ltl::parse("p &&", factory).error, "");       // missing operand
  EXPECT_NE(ltl::parse("U p", factory).error, "");        // binary as prefix
}

TEST(LtlParser, DeepNestingIsAPositionedError) {
  // Every way to nest a formula 10^5 deep ends in a diagnostic with an
  // offset, never a stack overflow: parentheses, prefix operators, the
  // right-associated ->, U and R, and the left-associated && and || chains.
  constexpr std::size_t kLevels = 100000;
  auto chain = [&](const char* op) {
    std::string f = "p";
    for (std::size_t i = 0; i < kLevels; ++i) f += op;
    return f;
  };
  const std::string cases[] = {
      std::string(kLevels, '(') + "p" + std::string(kLevels, ')'),
      std::string(kLevels, '!') + "p",
      chain(" -> p"),
      chain(" U p"),
      chain(" R p"),
      chain(" && p"),
      chain(" || p"),
  };
  for (const auto& text : cases) {
    std::string prefix;
    for (const char* op : {"X ", "F ", "G "})
      for (int i = 0; i < 400; ++i) prefix += op;
    for (const std::string& f : {text, prefix + "p"}) {
      FormulaFactory factory;
      ParseResult r = ltl::parse(f, factory);
      EXPECT_EQ(r.formula, nullptr) << f.substr(0, 40);
      EXPECT_NE(r.error.find("at offset"), std::string::npos) << r.error;
      EXPECT_NE(r.error.find("nested deeper than 1000 levels"),
                std::string::npos)
          << r.error;
    }
  }
  // Nesting below the limit still parses.
  FormulaFactory factory;
  EXPECT_EQ(ltl::parse(std::string(900, '(') + "p" + std::string(900, ')'),
                       factory)
                .error,
            "");
  EXPECT_EQ(ltl::parse(std::string(999, '!') + "p", factory).error, "");
}

TEST(LtlFormula, NnfPushesNegationThroughDuals) {
  FormulaFactory factory;
  ParseResult r = ltl::parse("G F p", factory);
  ASSERT_EQ(r.error, "");
  // ¬(G F p) = F G ¬p.
  EXPECT_EQ(factory.to_string(factory.to_nnf(r.formula, /*negated=*/true),
                              r.atoms),
            "F (G !p)");
}

// ---- tiny Kripke structure driving the product engine ----------------------
//
// States are bytes; atom valuations and edges are table-driven per test. It
// has no remotes, so the engine runs with FairnessMode::None semantics
// regardless of the requested mode (every cycle is "fair"). One component:
// the state byte.
struct TinyState {
  std::uint8_t at = 0;

  friend bool operator==(const TinyState&, const TinyState&) = default;
};

class TinySystem {
 public:
  using State = TinyState;
  struct Log {};
  struct Action {
    static constexpr bool blocked = false;
    std::uint8_t to;
  };

  using Edges = std::vector<std::vector<std::uint8_t>>;

  explicit TinySystem(Edges edges) : edges_(std::move(edges)) {}

  [[nodiscard]] State initial() const { return {}; }
  [[nodiscard]] int num_remotes() const { return 0; }

  template <class Visit>
  bool for_each_action(const State& s, Visit&& visit) const {
    for (std::uint8_t to : edges_[s.at])
      if (!visit(Action{to})) return false;
    return true;
  }
  void apply(State& s, const Action& a, sem::LabelMode mode, sem::Label& l,
             Log* = nullptr) const {
    l.reset();
    if (mode == sem::LabelMode::Full) l.text = "-> " + std::to_string(int(a.to));
    s.at = a.to;
  }
  [[nodiscard]] ComponentSet touched(const Action&, const Log&) const {
    ComponentSet t;
    t.add(0);
    return t;
  }
  void restore(State& dst, const State& src, const ComponentSet&) const {
    dst = src;
  }
  [[nodiscard]] std::vector<std::pair<State, sem::Label>> successors(
      const State& s) const {
    std::vector<std::pair<State, sem::Label>> out;
    for_each_action(s, [&](const Action& a) {
      auto& [next, label] = out.emplace_back(s, sem::Label{});
      apply(next, a, sem::LabelMode::Full, label);
      return true;
    });
    return out;
  }

  void encode(const State& s, ByteSink& sink) const {
    encode_component(s, 0, sink);
  }
  void encode_component(const State& s, int, ByteSink& sink) const {
    sink.u8(s.at);
    sink.boundary(0);
  }
  [[nodiscard]] State decode(ByteSource& src) const {
    State s;
    decode_into(src, s);
    return s;
  }
  void decode_into(ByteSource& src, State& s,
                   std::vector<ComponentMark>* marks = nullptr) const {
    s.at = src.u8();
    if (marks) *marks = {{static_cast<std::uint32_t>(src.position()), 0}};
  }
  void canonicalize(State&) const {}
  [[nodiscard]] std::string describe(const State& s) const {
    return "s" + std::to_string(int(s.at));
  }

 private:
  std::vector<std::vector<std::uint8_t>> edges_;
};

/// Compile `text` over atom predicates given by name -> per-state bitmask
/// (bit k set = atom holds at state k). Event atoms are not needed here.
struct TinyProperty {
  ltl::Buchi aut;
  std::vector<std::function<bool(const TinyState&, const sem::Label&)>> atoms;
};

TinyProperty tiny_compile(const std::string& text,
                          const std::map<std::string, std::uint32_t>& masks) {
  FormulaFactory factory;
  ParseResult r = ltl::parse(text, factory);
  EXPECT_EQ(r.error, "") << text;
  TinyProperty p;
  for (const ltl::Atom& a : r.atoms) {
    auto it = masks.find(a.spelling);
    EXPECT_NE(it, masks.end()) << "unmapped atom " << a.spelling;
    std::uint32_t mask = it == masks.end() ? 0 : it->second;
    p.atoms.push_back([mask](const TinyState& s, const sem::Label&) {
      return (mask >> s.at) & 1u;
    });
  }
  p.aut = ltl::translate(factory.to_nnf(r.formula, /*negated=*/true),
                         r.atoms.size());
  return p;
}

verify::LivenessResult tiny_check(
    const TinySystem& sys, const std::string& text,
    const std::map<std::string, std::uint32_t>& masks) {
  TinyProperty p = tiny_compile(text, masks);
  return verify::find_accepting_lasso(sys, p.aut, p.atoms);
}

TEST(LtlEngine, GloballyFinallyHoldsOnVisitingCycle) {
  // 0 <-> 1, p only at 1: every infinite run visits 1 infinitely often.
  TinySystem sys(TinySystem::Edges{{1}, {0}});
  auto r = tiny_check(sys, "G F p", {{"p", 0b10}});
  EXPECT_EQ(r.status, verify::Status::Ok) << r.violation;
  EXPECT_GT(r.states, 0u);
}

TEST(LtlEngine, GloballyFinallyFailsOnAvoidingCycle) {
  // 0 -> {0, 1}, 1 -> 1. p holds only at 1; looping at 0 avoids it.
  TinySystem sys(TinySystem::Edges{{0, 1}, {1}});
  auto r = tiny_check(sys, "G F p", {{"p", 0b10}});
  ASSERT_EQ(r.status, verify::Status::LivenessViolated);
  EXPECT_FALSE(r.cycle.empty());
  for (const auto& step : r.cycle)
    EXPECT_EQ(step.find("<trace reconstruction failed>"), std::string::npos)
        << step;
}

TEST(LtlEngine, FinallyGloballyDistinguishesSettlingFromOscillating) {
  // Settles: 0 -> 1 -> 1 with p at 1 => F G p holds.
  TinySystem settles(TinySystem::Edges{{1}, {1}});
  EXPECT_EQ(tiny_check(settles, "F G p", {{"p", 0b10}}).status,
            verify::Status::Ok);
  // Oscillates: 0 <-> 1 with p only at 1 => F G p fails.
  TinySystem oscillates(TinySystem::Edges{{1}, {0}});
  EXPECT_EQ(tiny_check(oscillates, "F G p", {{"p", 0b10}}).status,
            verify::Status::LivenessViolated);
}

TEST(LtlEngine, ResponsePropertyFindsUnansweredRequest) {
  // 0 -> 1 -> 2 -> 2; p (request) at 1, q (grant) at 2: answered.
  TinySystem answered(TinySystem::Edges{{1}, {2}, {2}});
  EXPECT_EQ(
      tiny_check(answered, "G (p -> F q)", {{"p", 0b010}, {"q", 0b100}})
          .status,
      verify::Status::Ok);
  // 0 -> 1 -> 1: the request at 1 is never answered.
  TinySystem ignored(TinySystem::Edges{{1}, {1}});
  auto r =
      tiny_check(ignored, "G (p -> F q)", {{"p", 0b010}, {"q", 0b000}});
  EXPECT_EQ(r.status, verify::Status::LivenessViolated);
}

TEST(LtlEngine, DeadlockIsStutterExtended) {
  // 0 -> 1, 1 has no successors. p never holds: with the stutter extension
  // the sole infinite word is s0 s1 s1 s1 ... so G F p fails there, while
  // F G !p holds on it.
  TinySystem sys(TinySystem::Edges{{1}, {}});
  auto fails = tiny_check(sys, "G F p", {{"p", 0b00}});
  ASSERT_EQ(fails.status, verify::Status::LivenessViolated);
  bool saw_stutter = false;
  for (const auto& step : fails.cycle)
    if (step.find("stutters forever") != std::string::npos) saw_stutter = true;
  EXPECT_TRUE(saw_stutter);
  EXPECT_EQ(tiny_check(sys, "F G !p", {{"p", 0b00}}).status,
            verify::Status::Ok);
}

TEST(LtlEngine, StemPlusCycleReplaysConcretely) {
  // 0 -> 1 -> 2 -> 1 (lasso with a real stem). q at 2 only; G !q fails.
  TinySystem sys(TinySystem::Edges{{1}, {2}, {1}});
  auto r = tiny_check(sys, "G !q", {{"q", 0b100}});
  ASSERT_EQ(r.status, verify::Status::LivenessViolated);
  ASSERT_FALSE(r.stem.empty());
  EXPECT_NE(r.stem.front().find("initial: s0"), std::string::npos);
  ASSERT_FALSE(r.cycle.empty());
  for (const auto& step : r.cycle)
    EXPECT_EQ(step.find("<trace reconstruction failed>"), std::string::npos)
        << step;
}

TEST(LtlEngine, MemoryExhaustionReportsUnfinished) {
  TinySystem sys(TinySystem::Edges{{1}, {0}});
  TinyProperty p = tiny_compile("G F p", {{"p", 0b10}});
  verify::LivenessOptions opts;
  opts.memory_limit = 16;  // not even the root fits
  auto r = verify::find_accepting_lasso(sys, p.aut, p.atoms, opts);
  EXPECT_EQ(r.status, verify::Status::Unfinished);
}

TEST(LtlBuchi, UntilAcceptanceRejectsProcrastination) {
  // ¬(p U q) should accept p^ω (q never): check with the engine on a p-only
  // self-loop; p U q must then be violated.
  TinySystem sys(TinySystem::Edges{{0}});
  EXPECT_EQ(tiny_check(sys, "p U q", {{"p", 0b1}, {"q", 0b0}}).status,
            verify::Status::LivenessViolated);
  // And with q reachable-and-taken it holds: 0 -> 1 (q at 1).
  TinySystem gets_there(TinySystem::Edges{{1}, {1}});
  EXPECT_EQ(
      tiny_check(gets_there, "p U q", {{"p", 0b01}, {"q", 0b10}}).status,
      verify::Status::Ok);
}

}  // namespace
}  // namespace ccref

// Tests for the textual protocol language: lexing, parsing, diagnostics,
// and the print -> parse round-trip for the paper's protocols.
#include <gtest/gtest.h>

#include "dsl/lexer.hpp"
#include "support/strings.hpp"
#include "dsl/parser.hpp"
#include "ir/print.hpp"
#include "ir/validate.hpp"
#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"

namespace ccref::dsl {
namespace {

// ---- lexer -------------------------------------------------------------------

TEST(Lexer, TokenizesPunctuationAndWords) {
  auto r = lex("state F { r(any j)?req -> GRANT }");
  ASSERT_TRUE(r.error.empty());
  std::vector<Tok> kinds;
  for (const auto& t : r.tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds.front(), Tok::Ident);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), Tok::Arrow), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), Tok::Query), kinds.end());
  EXPECT_EQ(kinds.back(), Tok::End);
}

TEST(Lexer, TwoCharOperators) {
  auto r = lex(":= += -= == != <= && || ->");
  ASSERT_TRUE(r.error.empty());
  std::vector<Tok> want = {Tok::Assign, Tok::PlusEq, Tok::MinusEq,
                           Tok::EqEq,   Tok::NotEq,  Tok::LessEq,
                           Tok::AndAnd, Tok::OrOr,   Tok::Arrow,
                           Tok::End};
  ASSERT_EQ(r.tokens.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(r.tokens[i].kind, want[i]) << i;
}

TEST(Lexer, CommentsAndPositions) {
  auto r = lex("a // comment with -> tokens\n  b");
  ASSERT_TRUE(r.error.empty());
  ASSERT_EQ(r.tokens.size(), 3u);  // a, b, End
  EXPECT_EQ(r.tokens[1].text, "b");
  EXPECT_EQ(r.tokens[1].line, 2);
  EXPECT_EQ(r.tokens[1].col, 3);
}

TEST(Lexer, ReportsBadCharacter) {
  auto r = lex("a $ b");
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.error_line, 1);
  EXPECT_EQ(r.error_col, 3);
}

// ---- parser ------------------------------------------------------------------

constexpr const char* kPingPong = R"(
protocol pingpong;
message ping;
message pong(int);

home h {
  var j: node;
  var c: int mod 4 = 1;
  state IDLE initial {
    r(any j)?ping -> REPLY
  }
  state REPLY {
    r(j)!pong(c) { c := c + 1 } -> IDLE
  }
}

remote r {
  var got: int mod 4;
  internal THINK {
    tau go -> ASK
  }
  state ASK {
    h!ping -> WAIT
  }
  state WAIT {
    h?pong(got) -> THINK
  }
}
)";

TEST(Parser, ParsesPingPong) {
  auto r = parse(kPingPong);
  ASSERT_TRUE(r.ok()) << r.error_text();
  const auto& p = *r.protocol;
  EXPECT_EQ(p.name, "pingpong");
  EXPECT_EQ(p.messages.size(), 2u);
  EXPECT_EQ(p.home.states.size(), 2u);
  EXPECT_EQ(p.remote.states.size(), 3u);
  EXPECT_EQ(p.home.vars[1].bound, 4u);
  EXPECT_EQ(p.home.vars[1].init, 1u);
  auto diags = ir::validate(p);
  EXPECT_FALSE(ir::has_errors(diags)) << ir::to_string(diags);
}

TEST(Parser, ParsedProtocolExecutes) {
  auto r = parse(kPingPong);
  ASSERT_TRUE(r.ok()) << r.error_text();
  auto result = verify::explore(sem::RendezvousSystem(*r.protocol, 2));
  EXPECT_EQ(result.status, verify::Status::Ok);
  EXPECT_GT(result.states, 5u);
}

TEST(Parser, ForwardStateReferencesWork) {
  // REPLY is referenced before its declaration in kPingPong; also check a
  // same-state self-loop.
  auto r = parse(R"(
protocol t;
message m;
home h {
  var j: node;
  state A initial { r(any j)?m -> B }
  state B { r(j)!m -> A }
}
remote r {
  state S { h!m -> T }
  state T { h?m -> S }
}
)");
  EXPECT_TRUE(r.ok()) << r.error_text();
}

TEST(Parser, ConditionsBindersActionsAndSets) {
  auto r = parse(R"(
protocol sets;
message add;
message probe;
home h {
  var cs: nodeset;
  var t: node;
  state H initial {
    [!empty(cs)] r(pick cs as t)!probe { cs -= {t}; t := none } -> H
    r(any t)?add { cs += {t} } -> H
    [size(cs) <= 1 && true] tau idle -> H
  }
}
remote r {
  state S {
    h!add -> P
  }
  state P {
    h?probe -> S
    tau quit -> S
  }
}
)");
  ASSERT_TRUE(r.ok()) << r.error_text();
  auto diags = ir::validate(*r.protocol);
  EXPECT_FALSE(ir::has_errors(diags)) << ir::to_string(diags);
  const auto& h = r.protocol->home.states[0];
  EXPECT_EQ(h.outputs.size(), 1u);
  EXPECT_EQ(h.outputs[0].to.kind, ir::PeerSel::Kind::AnyInSet);
  EXPECT_NE(h.outputs[0].cond, nullptr);
  EXPECT_EQ(h.taus.size(), 1u);
}

TEST(Parser, ErrorsCarryPositions) {
  auto r = parse("protocol p;\nmessage m\nhome h {}");  // missing ';'
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("3:1"), std::string::npos)
      << r.error_text();
}

TEST(Parser, DeepNestingIsAPositionedError) {
  // Guard pingpong's first transition with `expr`; the parse must end in
  // a positioned diagnostic, never a stack overflow.
  auto cat = [](std::initializer_list<std::string_view> parts) {
    std::string out;
    for (auto part : parts) out += part;
    return out;
  };
  auto with_guard = [&](const std::string& expr) {
    std::string text = kPingPong;
    text.insert(text.find("r(any j)?ping"), cat({"[", expr, "] "}));
    return text;
  };
  constexpr std::size_t kLevels = 100000;
  const std::string open(kLevels, '('), close(kLevels, ')');
  auto chain = [&](std::string_view first, std::string_view op) {
    std::string e(first);
    for (std::size_t i = 0; i < kLevels; ++i) e += op;
    return e;
  };
  const std::string cases[] = {
      cat({open, "true", close}),
      cat({std::string(kLevels, '!'), "true"}),
      cat({"size(", open, "{}", close, ") == 0"}),
      chain("true", " && true"),
      chain("true", " || true"),
      cat({chain("0", " + 1"), " == 0"}),
  };
  for (const auto& expr : cases) {
    auto r = parse(with_guard(expr));
    ASSERT_FALSE(r.ok()) << expr.substr(0, 40);
    EXPECT_EQ(r.error_text().rfind("10:", 0), 0u) << r.error_text();
    EXPECT_NE(r.error_text().find("nested deeper than 1000 levels"),
              std::string::npos)
        << r.error_text();
  }
  // Nesting below the limit still parses.
  EXPECT_TRUE(parse(with_guard(cat(
                        {std::string(300, '('), "true", std::string(300, ')')})))
                  .ok());
  EXPECT_TRUE(parse(with_guard(cat({std::string(999, '!'), "true"}))).ok());
}

TEST(Parser, UnknownStateIsAnError) {
  auto r = parse(R"(
protocol p;
message m;
home h {
  var j: node;
  state A initial { r(any j)?m -> NOWHERE }
}
remote r {
  state S { h!m -> S }
}
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("unknown state 'NOWHERE'"),
            std::string::npos);
}

TEST(Parser, UndeclaredVariableIsAnError) {
  auto r = parse(R"(
protocol p;
message m(int);
home h {
  var j: node;
  state A initial { r(any j)?m(x) -> A }
}
remote r {
  state S { h!m(1) -> S }
}
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("undeclared variable 'x'"),
            std::string::npos);
}

TEST(Parser, ReservedWordsRejectedAsNames) {
  auto r = parse("protocol state;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("reserved"), std::string::npos);
}

TEST(Parser, SelfRejectedInHome) {
  auto r = parse(R"(
protocol p;
message m(node);
home h {
  var j: node;
  state A initial { r(j)!m(self) -> A }
}
remote r {
  state S { h?m -> S }
}
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("self"), std::string::npos);
}

TEST(Parser, IgnoredPayloadFields) {
  auto r = parse(R"(
protocol p;
message m(int, node);
home h {
  var j: node;
  var x: int;
  state A initial { r(any j)?m(x, _) -> A }
}
remote r {
  var n: node;
  state S { h!m(3, self) -> S }
}
)");
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.protocol->home.states[0].inputs[0].bind_payload[1],
            ir::kNoVar);
}

TEST(Parser, PickOnInputIsRejected) {
  auto r = parse(R"(
protocol p;
message m;
home h {
  var w: nodeset;
  var t: node;
  state A initial { r(pick w as t)?m -> A }
}
remote r {
  state S { h!m -> S }
}
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("'pick' is only valid on output"),
            std::string::npos);
}

TEST(Parser, AnyOnOutputIsRejected) {
  auto r = parse(R"(
protocol p;
message m;
home h {
  var j: node;
  state A initial { r(any j)!m -> A }
}
remote r {
  state S { h?m -> S }
}
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("'any' is only valid on input"),
            std::string::npos);
}

TEST(Parser, MissingArrowIsAnError) {
  auto r = parse(R"(
protocol p;
message m;
home h {
  var j: node;
  state A initial { r(any j)?m A }
}
remote r { state S { h!m -> S } }
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("'->'"), std::string::npos);
}

TEST(Parser, RemoteAddressingRemoteIsRejected) {
  auto r = parse(R"(
protocol p;
message m;
home h {
  var j: node;
  state A initial { r(any j)?m -> A }
}
remote r {
  var k: node;
  state S { r(k)!m -> S }
}
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("only with the home"), std::string::npos);
}

TEST(Parser, HomeAddressingItselfIsRejected) {
  auto r = parse(R"(
protocol p;
message m;
home h {
  state A initial { h?m -> A }
}
remote r { state S { h!m -> S } }
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("cannot address itself"), std::string::npos);
}

TEST(Parser, DuplicateMessageRejected) {
  auto r = parse("protocol p;\nmessage m;\nmessage m;\nhome h {}\nremote r {}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("duplicate message"), std::string::npos);
}

TEST(Parser, DuplicateVariableRejected) {
  auto r = parse(R"(
protocol p;
message m;
home h {
  var x: int;
  var x: bool;
  state A initial { r(any x)?m -> A }
}
remote r { state S { h!m -> S } }
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("duplicate variable"), std::string::npos);
}

TEST(Parser, TrailingSemicolonInActionAllowed) {
  auto r = parse(R"(
protocol p;
message m;
home h {
  var j: node;
  var x: int;
  state A initial { r(any j)?m { x := 1; } -> A }
}
remote r { state S { h!m -> S } }
)");
  EXPECT_TRUE(r.ok()) << r.error_text();
}

TEST(Parser, EmptySetLiteralInExpressions) {
  auto r = parse(R"(
protocol p;
message m;
home h {
  var w: nodeset;
  var j: node;
  state A initial {
    [w == {}] r(any j)?m -> A
  }
}
remote r { state S { h!m -> S } }
)");
  EXPECT_TRUE(r.ok()) << r.error_text();
}

// ---- topology + broadcast -----------------------------------------------------

// A minimal but complete bus protocol: one broadcast with a generalized home
// input, one snoop guard, one point-to-point grant.
constexpr const char* kMiniBus = R"(
protocol minibus;
topology bus;
message Up;
message Gr;
home h {
  var j: node;
  state H initial { r(any j)?Up -> G }
  state G { r(j)!Gr { j := none } -> H }
}
remote r {
  state I initial { tau go -> A }
  state A { bcast!Up -> W }
  state W { h?Gr -> S }
  state S { bcast?Up -> I }
}
)";

TEST(Parser, TopologyBusParses) {
  auto r = parse(kMiniBus);
  ASSERT_TRUE(r.ok()) << r.error_text();
  const ir::Protocol& p = *r.protocol;
  EXPECT_EQ(p.topology, ir::Topology::Bus);
  const ir::State& a = p.remote.state(p.remote.find_state("A"));
  ASSERT_EQ(a.outputs.size(), 1u);
  EXPECT_EQ(a.outputs[0].to.kind, ir::PeerSel::Kind::Bcast);
  const ir::State& s = p.remote.state(p.remote.find_state("S"));
  ASSERT_EQ(s.inputs.size(), 1u);
  EXPECT_EQ(s.inputs[0].from.kind, ir::PeerSrc::Kind::Bcast);
  auto diags = ir::validate(p);
  EXPECT_FALSE(ir::has_errors(diags)) << ir::to_string(diags);
}

TEST(Parser, BcastRequiresBusTopologyWithPosition) {
  // Same protocol minus the topology declaration: the first 'bcast' must be
  // rejected at its own line:column, naming the missing declaration.
  std::string text = kMiniBus;
  text.erase(text.find("topology bus;\n"), 14);
  auto r = parse(text);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("requires 'topology bus;'"),
            std::string::npos)
      << r.error_text();
  EXPECT_NE(r.error_text().find("12:13"), std::string::npos)
      << r.error_text();  // line 12, the 'bcast!Up' guard
}

TEST(Parser, HomeCannotUseBcast) {
  auto r = parse(R"(
protocol p;
topology bus;
message m;
home h {
  var j: node;
  state A initial { bcast!m -> A }
}
remote r { state S { h?m -> S } }
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("the home cannot use 'bcast'"),
            std::string::npos)
      << r.error_text();
}

TEST(Parser, RequesterBinderOnlyOnSnoopGuards) {
  auto r = parse(R"(
protocol p;
topology bus;
message Up;
home h {
  var j: node;
  state H initial { r(any j)?Up -> H }
}
remote r {
  var v: node;
  state A initial { bcast(v)!Up -> A }
}
)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("only valid on 'bcast(v)?'"),
            std::string::npos)
      << r.error_text();
}

TEST(Parser, TopologyNeedsBusOrStar) {
  auto r = parse("protocol p;\ntopology ring;\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("expected 'bus' or 'star'"),
            std::string::npos)
      << r.error_text();
}

TEST(Parser, BusProtocolRoundTrips) {
  auto first = parse(kMiniBus);
  ASSERT_TRUE(first.ok()) << first.error_text();
  std::string printed = ir::to_string(*first.protocol);
  auto second = parse(printed);
  ASSERT_TRUE(second.ok()) << second.error_text() << "\n--- printed ---\n"
                           << printed;
  auto a = verify::explore(sem::RendezvousSystem(*first.protocol, 3));
  auto b = verify::explore(sem::RendezvousSystem(*second.protocol, 3));
  EXPECT_EQ(a.status, verify::Status::Ok);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
}

// ---- round-trip ---------------------------------------------------------------

class RoundTrip : public testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, PrintParseReprint) {
  ir::Protocol original = std::string(GetParam()) == "migratory"
                              ? protocols::make_migratory()
                              : protocols::make_invalidate();
  std::string text = ir::to_string(original);
  auto parsed = parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text() << "\n--- source ---\n"
                           << text;
  // Printing the parsed protocol reproduces the text exactly (modulo the
  // cosmetic guard labels, which print as comments and do not re-parse).
  std::string text2 = ir::to_string(*parsed.protocol);
  auto strip_comments = [](std::string s) {
    std::string out;
    for (auto line : ccref::split(s, '\n')) {
      auto pos = line.find("   //");
      out += std::string(pos == std::string_view::npos ? line
                                                       : line.substr(0, pos));
      out += '\n';
    }
    return out;
  };
  EXPECT_EQ(strip_comments(text), strip_comments(text2));
}

TEST_P(RoundTrip, ParsedProtocolHasIdenticalStateSpace) {
  ir::Protocol original = std::string(GetParam()) == "migratory"
                              ? protocols::make_migratory()
                              : protocols::make_invalidate();
  auto parsed = parse(ir::to_string(original));
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  auto a = verify::explore(sem::RendezvousSystem(original, 3));
  auto b = verify::explore(sem::RendezvousSystem(*parsed.protocol, 3));
  EXPECT_EQ(a.status, verify::Status::Ok);
  EXPECT_EQ(b.status, verify::Status::Ok);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
}

INSTANTIATE_TEST_SUITE_P(Protocols, RoundTrip,
                         testing::Values("migratory", "invalidate"));

}  // namespace
}  // namespace ccref::dsl

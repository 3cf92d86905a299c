#include "dsl/parser.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "dsl/lexer.hpp"
#include "ir/builder.hpp"
#include "support/strings.hpp"

namespace ccref::dsl {

using ir::ExprP;
using ir::StmtP;
using ir::Type;
using ir::VarId;
namespace ex = ir::ex;
namespace st = ir::st;

std::string ParseResult::error_text() const {
  return join(errors, "\n");
}

namespace {

const std::set<std::string_view> kReserved = {
    "protocol", "message", "home",  "remote", "var",  "state",
    "internal", "initial", "tau",   "skip",   "true", "false",
    "self",     "empty",   "size",  "node",   "none", "any",  "pick",
    "as",       "mod",     "in",    "h",      "r",    "bool",
    "int",      "nodeset", "topology", "bus", "star", "bcast"};

struct ParseAbort {};

// The deepest nesting an expression may have. Each level costs a stack
// frame here and in every recursive pass over the expression tree
// (printing, validation, evaluation), so an expression nested 10^5 deep
// must be refused, not overflow the stack.
constexpr int kMaxDepth = 1000;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens, std::vector<std::string>& errors)
      : toks_(std::move(tokens)), errors_(errors) {}

  ir::Protocol run() {
    expect_word("protocol");
    std::string name = ident("protocol name");
    expect(Tok::Semi);
    builder_.emplace(name);
    if (at_word("topology")) {
      advance();
      if (eat_word("bus")) {
        bus_ = true;
        builder_->topology(ir::Topology::Bus);
      } else if (!eat_word("star")) {
        fail(peek(), "expected 'bus' or 'star' after 'topology'");
      }
      expect(Tok::Semi);
    }
    while (at_word("message")) parse_message();
    expect_word("home");
    parse_process(builder_->home(), /*is_home=*/true);
    expect_word("remote");
    parse_process(builder_->remote(), /*is_home=*/false);
    expect(Tok::End);
    return builder_->build();
  }

 private:
  // ---- token plumbing ----
  const Token& peek(int ahead = 0) const {
    std::size_t at = pos_ + ahead;
    return at < toks_.size() ? toks_[at] : toks_.back();
  }
  const Token& advance() {
    const Token& t = peek();
    if (pos_ + 1 < toks_.size()) ++pos_;
    return t;
  }
  [[noreturn]] void fail(const Token& at, std::string msg) {
    errors_.push_back(strf("%d:%d: %s", at.line, at.col, msg.c_str()));
    throw ParseAbort{};
  }
  const Token& expect(Tok kind) {
    if (!peek().is(kind))
      fail(peek(), strf("expected %s, found %s%s%s", token_name(kind),
                        token_name(peek().kind),
                        peek().text.empty() ? "" : " '",
                        peek().text.empty()
                            ? ""
                            : (std::string(peek().text) + "'").c_str()));
    return advance();
  }
  void expect_word(std::string_view word) {
    if (!peek().is_ident(word))
      fail(peek(), strf("expected '%s'", std::string(word).c_str()));
    advance();
  }
  bool at_word(std::string_view word) const { return peek().is_ident(word); }
  bool eat_word(std::string_view word) {
    if (!at_word(word)) return false;
    advance();
    return true;
  }
  std::string ident(const char* what) {
    if (!peek().is(Tok::Ident))
      fail(peek(), strf("expected %s", what));
    if (kReserved.contains(peek().text))
      fail(peek(), strf("'%s' is a reserved word",
                        std::string(peek().text).c_str()));
    return std::string(advance().text);
  }
  std::int64_t integer() {
    const Token& t = expect(Tok::Int);
    return std::strtoll(std::string(t.text).c_str(), nullptr, 10);
  }

  // ---- declarations ----
  void parse_message() {
    expect_word("message");
    std::string name = ident("message name");
    std::vector<Type> payload;
    if (peek().is(Tok::LParen)) {
      advance();
      payload.push_back(parse_type());
      while (peek().is(Tok::Comma)) {
        advance();
        payload.push_back(parse_type());
      }
      expect(Tok::RParen);
    }
    if (messages_.contains(name))
      fail(peek(), strf("duplicate message '%s'", name.c_str()));
    messages_[name] = builder_->msg(name, std::move(payload));
    expect(Tok::Semi);
  }

  Type parse_type() {
    if (eat_word("bool")) return Type::Bool;
    if (eat_word("int")) return Type::Int;
    if (eat_word("node")) return Type::Node;
    if (eat_word("nodeset")) return Type::NodeSet;
    fail(peek(), "expected a type (bool, int, node, nodeset)");
  }

  /// Scan ahead (without consuming) for state names declared in the process
  /// block starting at the current '{', so guards can reference states
  /// declared later in the file.
  void prescan_states() {
    states_.clear();
    int depth = 0;
    for (std::size_t at = pos_;; ++at) {
      const Token& t = toks_[at];
      if (t.is(Tok::End)) break;
      if (t.is(Tok::LBrace)) ++depth;
      if (t.is(Tok::RBrace)) {
        if (--depth == 0) break;
      }
      if (depth == 1 && (t.is_ident("state") || t.is_ident("internal")) &&
          toks_[at + 1].is(Tok::Ident))
        states_.insert(std::string(toks_[at + 1].text));
    }
  }

  void parse_process(ir::ProcessBuilder& pb, bool is_home) {
    proc_ = &pb;
    is_home_ = is_home;
    vars_.clear();
    // Accept any process name (conventionally h / r).
    if (peek().is(Tok::Ident)) advance();
    if (!peek().is(Tok::LBrace)) fail(peek(), "expected '{'");
    prescan_states();
    expect(Tok::LBrace);
    while (!peek().is(Tok::RBrace)) {
      if (at_word("var")) {
        parse_var();
      } else if (at_word("state") || at_word("internal")) {
        parse_state();
      } else {
        fail(peek(), "expected 'var', 'state' or 'internal'");
      }
    }
    expect(Tok::RBrace);
  }

  void parse_var() {
    expect_word("var");
    std::string name = ident("variable name");
    expect(Tok::Colon);
    Type type = parse_type();
    std::uint32_t bound = 2;
    // Node variables start out naming no remote; any other default would pin
    // a concrete node id and break symmetry (see kNoNode in ir/types.hpp).
    ir::Value init = type == Type::Node ? ir::kNoNode : 0;
    if (eat_word("mod")) bound = static_cast<std::uint32_t>(integer());
    if (peek().is(Tok::Eq)) {
      advance();
      init = static_cast<ir::Value>(integer());
    }
    expect(Tok::Semi);
    if (vars_.contains(name))
      fail(peek(), strf("duplicate variable '%s'", name.c_str()));
    vars_[name] = proc_->var(name, type, init, bound);
  }

  void parse_state() {
    bool internal = at_word("internal");
    advance();
    std::string name = ident("state name");
    auto& sb = internal ? proc_->internal(name) : proc_->comm(name);
    if (eat_word("initial")) sb.initial();
    expect(Tok::LBrace);
    while (!peek().is(Tok::RBrace)) parse_guard(name);
    expect(Tok::RBrace);
  }

  // ---- guards ----
  void parse_guard(const std::string& state) {
    ExprP cond;
    if (peek().is(Tok::LBracket)) {
      advance();
      cond = parse_expr();
      expect(Tok::RBracket);
    }
    if (at_word("tau")) {
      advance();
      std::string label;
      if (peek().is(Tok::Ident) && !kReserved.contains(peek().text) &&
          !peek(1).is(Tok::Assign))
        label = std::string(advance().text);
      auto& tb = proc_->tau(state, label);
      if (cond) tb.when(cond);
      if (peek().is(Tok::LBrace)) tb.act(parse_action());
      expect(Tok::Arrow);
      tb.go(resolve_state());
      return;
    }

    // Peer prefix: 'h', 'r(...)' or 'bcast'.
    enum class Peer { Home, Any, Pick, Expr, Bcast } peer = Peer::Home;
    ExprP peer_expr;
    VarId bind_peer = ir::kNoVar;
    if (eat_word("h")) {
      peer = Peer::Home;
      if (is_home_) fail(peek(), "the home cannot address itself");
    } else if (at_word("bcast")) {
      if (is_home_)
        fail(peek(),
             "the home cannot use 'bcast'; it observes broadcasts through "
             "'r(any v)?' and replies with 'r(e)!'");
      if (!bus_)
        fail(peek(),
             "'bcast' requires 'topology bus;' after the protocol "
             "declaration (this protocol is star)");
      advance();
      peer = Peer::Bcast;
      // Optional requester binder: bcast(v)?M — v receives the sender id.
      if (peek().is(Tok::LParen)) {
        advance();
        bind_peer = lookup_var(ident("binder variable"));
        expect(Tok::RParen);
      }
    } else if (eat_word("r")) {
      if (!is_home_)
        fail(peek(), "remotes communicate only with the home ('h')");
      expect(Tok::LParen);
      if (eat_word("any")) {
        peer = Peer::Any;
        if (peek().is(Tok::Ident) && !kReserved.contains(peek().text))
          bind_peer = lookup_var(std::string(advance().text));
      } else if (eat_word("pick")) {
        peer = Peer::Pick;
        peer_expr = parse_expr();
        if (eat_word("as"))
          bind_peer = lookup_var(ident("binder variable"));
      } else {
        peer = Peer::Expr;
        peer_expr = parse_expr();
      }
      expect(Tok::RParen);
    } else {
      fail(peek(), "expected a guard ('h', 'r(...)', 'tau' or '[cond]')");
    }

    bool is_input = peek().is(Tok::Query);
    if (!is_input && !peek().is(Tok::Bang))
      fail(peek(), "expected '?' or '!' after the peer");
    advance();
    std::string msg_name = ident("message name");
    auto mit = messages_.find(msg_name);
    if (mit == messages_.end())
      fail(peek(), strf("unknown message '%s'", msg_name.c_str()));

    if (is_input) {
      auto& ib = proc_->input(state, mit->second);
      if (cond) ib.when(cond);
      switch (peer) {
        case Peer::Home:
          ib.from_home();
          break;
        case Peer::Any:
          ib.from_any(bind_peer);
          break;
        case Peer::Expr:
          ib.from(peer_expr);
          break;
        case Peer::Bcast:
          ib.from_bcast(bind_peer);
          break;
        case Peer::Pick:
          fail(peek(), "'pick' is only valid on output guards");
      }
      if (peek().is(Tok::LParen)) {
        advance();
        std::vector<VarId> binds;
        for (;;) {
          if (peek().is_ident("_")) {
            advance();
            binds.push_back(ir::kNoVar);
          } else {
            binds.push_back(lookup_var(ident("binder variable")));
          }
          if (!peek().is(Tok::Comma)) break;
          advance();
        }
        expect(Tok::RParen);
        ib.bind(std::move(binds));
      }
      if (peek().is(Tok::LBrace)) ib.act(parse_action());
      expect(Tok::Arrow);
      ib.go(resolve_state());
    } else {
      auto& ob = proc_->output(state, mit->second);
      if (cond) ob.when(cond);
      switch (peer) {
        case Peer::Home:
          ob.to_home();
          break;
        case Peer::Expr:
          ob.to(peer_expr);
          break;
        case Peer::Pick:
          ob.to_any_in(peer_expr, bind_peer);
          break;
        case Peer::Bcast:
          if (bind_peer != ir::kNoVar)
            fail(peek(),
                 "a requester binder is only valid on 'bcast(v)?' snoop "
                 "inputs, not broadcast outputs");
          ob.bcast();
          break;
        case Peer::Any:
          fail(peek(), "'any' is only valid on input guards");
      }
      if (peek().is(Tok::LParen)) {
        advance();
        std::vector<ExprP> payload;
        payload.push_back(parse_expr());
        while (peek().is(Tok::Comma)) {
          advance();
          payload.push_back(parse_expr());
        }
        expect(Tok::RParen);
        ob.pay(std::move(payload));
      }
      if (peek().is(Tok::LBrace)) ob.act(parse_action());
      expect(Tok::Arrow);
      ob.go(resolve_state());
    }
  }

  std::string resolve_state() {
    std::string name = ident("state name");
    if (!states_.contains(name))
      fail(peek(), strf("unknown state '%s'", name.c_str()));
    return name;
  }

  VarId lookup_var(const std::string& name) {
    auto it = vars_.find(name);
    if (it == vars_.end())
      fail(peek(), strf("undeclared variable '%s'", name.c_str()));
    return it->second;
  }

  // ---- statements ----
  StmtP parse_action() {
    expect(Tok::LBrace);
    std::vector<StmtP> body;
    body.push_back(parse_stmt());
    while (peek().is(Tok::Semi)) {
      advance();
      if (peek().is(Tok::RBrace)) break;  // trailing ';'
      body.push_back(parse_stmt());
    }
    expect(Tok::RBrace);
    return body.size() == 1 ? body[0] : st::seq(std::move(body));
  }

  StmtP parse_stmt() {
    if (eat_word("skip")) return st::nop();
    VarId var = lookup_var(ident("variable"));
    if (peek().is(Tok::Assign)) {
      advance();
      return st::assign(var, parse_expr());
    }
    if (peek().is(Tok::PlusEq) || peek().is(Tok::MinusEq)) {
      bool add = peek().is(Tok::PlusEq);
      advance();
      expect(Tok::LBrace);
      ExprP element = parse_expr();
      expect(Tok::RBrace);
      return add ? st::set_add(var, element) : st::set_remove(var, element);
    }
    fail(peek(), "expected ':=', '+=' or '-='");
  }

  // ---- expressions ----

  /// Restores the nesting depth a rule started at when it returns.
  struct Level {
    explicit Level(int& d) : depth(d), saved(d) {}
    ~Level() { depth = saved; }
    int& depth;
    int saved;
  };

  /// Open one more nesting level at the current token: one per
  /// parenthesis, set function and '!', plus one per operator of a
  /// left-associated chain, which nests its tree as deep.
  void deeper() {
    if (++depth_ > kMaxDepth)
      fail(peek(), strf("expression nested deeper than %d levels", kMaxDepth));
  }

  ExprP parse_expr() { return parse_or(); }

  ExprP parse_or() {
    ExprP lhs = parse_and();
    Level level(depth_);
    while (peek().is(Tok::OrOr)) {
      deeper();
      advance();
      lhs = ex::lor(lhs, parse_and());
    }
    return lhs;
  }

  ExprP parse_and() {
    ExprP lhs = parse_cmp();
    Level level(depth_);
    while (peek().is(Tok::AndAnd)) {
      deeper();
      advance();
      lhs = ex::land(lhs, parse_cmp());
    }
    return lhs;
  }

  ExprP parse_cmp() {
    ExprP lhs = parse_sum();
    switch (peek().kind) {
      case Tok::EqEq:
        advance();
        return ex::eq(lhs, parse_sum());
      case Tok::NotEq:
        advance();
        return ex::ne(lhs, parse_sum());
      case Tok::Less:
        advance();
        return ex::lt(lhs, parse_sum());
      case Tok::LessEq:
        advance();
        return ex::le(lhs, parse_sum());
      default:
        if (at_word("in")) {
          advance();
          return ex::set_contains(parse_sum(), lhs);
        }
        return lhs;
    }
  }

  ExprP parse_sum() {
    ExprP lhs = parse_unary();
    Level level(depth_);
    for (;;) {
      if (peek().is(Tok::Plus) || peek().is(Tok::Minus)) deeper();
      if (peek().is(Tok::Plus)) {
        advance();
        lhs = ex::add(lhs, parse_unary());
      } else if (peek().is(Tok::Minus)) {
        advance();
        lhs = ex::sub(lhs, parse_unary());
      } else {
        return lhs;
      }
    }
  }

  ExprP parse_unary() {
    Level level(depth_);
    if (peek().is(Tok::Bang)) {
      deeper();
      advance();
      return ex::negate(parse_unary());
    }
    return parse_primary();
  }

  ExprP parse_primary() {
    Level level(depth_);
    if (peek().is(Tok::Int)) return ex::lit(integer());
    if (eat_word("true")) return ex::boolean(true);
    if (eat_word("false")) return ex::boolean(false);
    if (eat_word("self")) {
      if (is_home_) fail(peek(), "'self' is only meaningful in the remote");
      return ex::self();
    }
    if (eat_word("node")) {
      expect(Tok::LParen);
      ExprP e = ex::node(integer());
      expect(Tok::RParen);
      return e;
    }
    if (eat_word("none")) return ex::no_node();
    if (at_word("empty") || at_word("size") || peek().is(Tok::LParen))
      deeper();
    if (eat_word("empty")) {
      expect(Tok::LParen);
      ExprP e = ex::set_empty(parse_expr());
      expect(Tok::RParen);
      return e;
    }
    if (eat_word("size")) {
      expect(Tok::LParen);
      ExprP e = ex::set_size(parse_expr());
      expect(Tok::RParen);
      return e;
    }
    if (peek().is(Tok::LBrace)) {
      advance();
      expect(Tok::RBrace);
      return ex::empty_set();
    }
    if (peek().is(Tok::LParen)) {
      advance();
      ExprP e = parse_expr();
      expect(Tok::RParen);
      return e;
    }
    if (peek().is(Tok::Ident)) return ex::var(lookup_var(ident("variable")));
    fail(peek(), "expected an expression");
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // expression nesting levels open (see deeper())
  std::vector<std::string>& errors_;
  std::optional<ir::ProtocolBuilder> builder_;
  ir::ProcessBuilder* proc_ = nullptr;
  bool is_home_ = false;
  bool bus_ = false;
  std::map<std::string, ir::MsgId, std::less<>> messages_;
  std::map<std::string, VarId, std::less<>> vars_;
  std::set<std::string, std::less<>> states_;
};

}  // namespace

ParseResult parse(std::string_view source) {
  ParseResult result;
  auto lexed = lex(source);
  if (!lexed.error.empty()) {
    result.errors.push_back(strf("%d:%d: %s", lexed.error_line,
                                 lexed.error_col, lexed.error.c_str()));
    return result;
  }
  Parser parser(std::move(lexed.tokens), result.errors);
  try {
    result.protocol = parser.run();
  } catch (const ParseAbort&) {
    // error already recorded
  }
  return result;
}

ParseResult parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParseResult result;
    result.errors.push_back("0:0: cannot open file: " + path);
    return result;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

}  // namespace ccref::dsl

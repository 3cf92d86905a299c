#include "ltl/parser.hpp"

#include <cctype>

#include "support/strings.hpp"

namespace ccref::ltl {

namespace {

// The deepest nesting a formula may have. Each level costs a stack frame
// here and in the passes over the parsed tree (to_nnf, the Büchi
// translation), so a formula nested 10^5 deep must be refused, not
// overflow the stack.
constexpr int kMaxDepth = 1000;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  FormulaFactory& factory;
  std::vector<Atom>& atoms;
  std::string error;
  // Levels open on the current path: one per parenthesis, prefix operator
  // and right-associated operator, plus one per operator of a
  // left-associated chain, which nests its tree as deep.
  int depth = 0;

  /// Restores the depth a rule started at when it returns.
  struct Level {
    explicit Level(int& d) : depth(d), saved(d) {}
    ~Level() { depth = saved; }
    int& depth;
    int saved;
  };

  /// Open one more level; false (and the error) past kMaxDepth.
  [[nodiscard]] bool deeper() {
    if (++depth <= kMaxDepth) return true;
    fail(strf("formula nested deeper than %d levels", kMaxDepth));
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }

  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos >= text.size();
  }

  [[nodiscard]] bool eat(std::string_view tok) {
    skip_ws();
    if (text.substr(pos, tok.size()) != tok) return false;
    // An identifier-like token must not be a prefix of a longer identifier
    // (`U` vs `Unlocked`, `true` vs `truely`).
    if (std::isalpha(static_cast<unsigned char>(tok.front()))) {
      std::size_t after = pos + tok.size();
      if (after < text.size() &&
          (std::isalnum(static_cast<unsigned char>(text[after])) ||
           text[after] == '_'))
        return false;
    }
    pos += tok.size();
    return true;
  }

  [[nodiscard]] std::string ident() {
    skip_ws();
    std::size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '_'))
      ++pos;
    return std::string(text.substr(start, pos - start));
  }

  const Formula* fail(std::string msg) {
    if (error.empty())
      error = strf("LTL parse error at offset %zu: %s", pos, msg.c_str());
    return nullptr;
  }

  std::uint32_t intern_atom(Atom a) {
    for (std::uint32_t i = 0; i < atoms.size(); ++i)
      if (atoms[i] == a) return i;
    atoms.push_back(std::move(a));
    return static_cast<std::uint32_t>(atoms.size() - 1);
  }

  const Formula* formula() {
    Level level(depth);
    if (!deeper()) return nullptr;
    const Formula* lhs = or_expr();
    if (!lhs) return nullptr;
    if (eat("->")) {
      const Formula* rhs = formula();
      if (!rhs) return nullptr;
      return factory.implies(lhs, rhs);
    }
    return lhs;
  }

  const Formula* or_expr() {
    const Formula* lhs = and_expr();
    if (!lhs) return nullptr;
    Level level(depth);
    while (eat("||") || eat("|")) {
      if (!deeper()) return nullptr;
      const Formula* rhs = and_expr();
      if (!rhs) return nullptr;
      lhs = factory.disj(lhs, rhs);
    }
    return lhs;
  }

  const Formula* and_expr() {
    const Formula* lhs = until_expr();
    if (!lhs) return nullptr;
    Level level(depth);
    while (eat("&&") || eat("&")) {
      if (!deeper()) return nullptr;
      const Formula* rhs = until_expr();
      if (!rhs) return nullptr;
      lhs = factory.conj(lhs, rhs);
    }
    return lhs;
  }

  const Formula* until_expr() {
    const Formula* lhs = unary();
    if (!lhs) return nullptr;
    Level level(depth);
    if (eat("U")) {
      if (!deeper()) return nullptr;
      const Formula* rhs = until_expr();
      if (!rhs) return nullptr;
      return factory.until(lhs, rhs);
    }
    if (eat("R")) {
      if (!deeper()) return nullptr;
      const Formula* rhs = until_expr();
      if (!rhs) return nullptr;
      return factory.release(lhs, rhs);
    }
    return lhs;
  }

  const Formula* unary() {
    Level level(depth);
    if (eat("!")) {
      const Formula* a = deeper() ? unary() : nullptr;
      return a ? factory.negate(a) : nullptr;
    }
    if (eat("X")) {
      const Formula* a = deeper() ? unary() : nullptr;
      return a ? factory.next(a) : nullptr;
    }
    if (eat("F")) {
      const Formula* a = deeper() ? unary() : nullptr;
      return a ? factory.finally_(a) : nullptr;
    }
    if (eat("G")) {
      const Formula* a = deeper() ? unary() : nullptr;
      return a ? factory.globally(a) : nullptr;
    }
    return primary();
  }

  const Formula* primary() {
    if (eat("true")) return factory.top();
    if (eat("false")) return factory.bottom();
    if (eat("(")) {
      const Formula* a = formula();
      if (!a) return nullptr;
      if (!eat(")")) return fail("expected ')'");
      return a;
    }
    skip_ws();
    std::string name = ident();
    if (name.empty()) return fail("expected an atom, 'true', 'false' or '('");
    Atom a;
    a.name = name;
    a.spelling = name;
    if (eat("(")) {
      a.spelling += '(';
      for (;;) {
        std::string arg = ident();
        if (arg.empty()) return fail("expected an atom argument");
        if (!a.args.empty()) a.spelling += ',';
        a.spelling += arg;
        a.args.push_back(std::move(arg));
        if (eat(",")) continue;
        break;
      }
      if (!eat(")")) return fail("expected ')' after atom arguments");
      a.spelling += ')';
    }
    return factory.atom(intern_atom(std::move(a)));
  }
};

}  // namespace

ParseResult parse(std::string_view text, FormulaFactory& factory) {
  ParseResult result;
  Parser p{text, 0, factory, result.atoms, {}};
  const Formula* f = p.formula();
  if (f && !p.at_end()) {
    f = nullptr;
    p.error = strf("LTL parse error: trailing input at offset %zu", p.pos);
  }
  if (!f) {
    result.error = p.error.empty() ? "LTL parse error" : p.error;
    result.atoms.clear();
    return result;
  }
  result.formula = f;
  return result;
}

}  // namespace ccref::ltl

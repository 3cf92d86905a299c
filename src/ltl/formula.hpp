// LTL abstract syntax over atomic propositions, with hash-consing and
// negation-normal-form rewriting.
//
// The liveness layer (verify/liveness.hpp) checks a property φ by searching
// the product of the system with a Büchi automaton for ¬φ (buchi.hpp). That
// tableau construction wants its input in *negation normal form* — negation
// only on atoms, temporal operators from the {X, U, R} core — so the factory
// exposes exactly that rewriting. Surface sugar (F, G, ->) is desugared on
// construction:
//
//   F a  ≡  true U a        G a  ≡  false R a        a -> b  ≡  ¬a ∨ b
//
// Formulas are hash-consed: structurally equal subformulas share one node,
// so the tableau's subformula sets are plain id-ordered sets and the §2.5 /
// §6 properties (G F completion, G(requested(i) -> F granted(i))) stay a
// handful of nodes.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/contracts.hpp"

namespace ccref::ltl {

/// An atomic proposition as spelled in the formula: a name plus optional
/// arguments (`completion`, `granted(1)`, `home(GRANT)`, `remote(0,V)`).
/// The parser only collects spellings; binding names to predicates over
/// concrete system states happens per-system in ap.hpp.
struct Atom {
  std::string name;
  std::vector<std::string> args;
  std::string spelling;  // canonical text, used for error messages

  friend bool operator==(const Atom&, const Atom&) = default;
};

enum class Op : std::uint8_t {
  True,
  False,
  AtomRef,  // positive literal, `atom` indexes the parse's atom table
  Not,      // arbitrary until to_nnf(); only over AtomRef afterwards
  And,
  Or,
  Next,
  Until,
  Release,
};

struct Formula {
  Op op;
  std::uint32_t id;     // creation index; stable total order for set keys
  std::uint32_t atom;   // AtomRef only
  const Formula* lhs;   // unary operand, or left binary operand
  const Formula* rhs;   // right binary operand
};

/// Creation-order comparator: gives tableau sets a deterministic iteration
/// order independent of allocator addresses.
struct FormulaById {
  bool operator()(const Formula* a, const Formula* b) const {
    return a->id < b->id;
  }
};

/// Owns every Formula node of one property; hands out canonical pointers.
class FormulaFactory {
 public:
  FormulaFactory() {
    true_ = fresh(Op::True, 0, nullptr, nullptr);
    false_ = fresh(Op::False, 0, nullptr, nullptr);
  }

  [[nodiscard]] const Formula* top() const { return true_; }
  [[nodiscard]] const Formula* bottom() const { return false_; }

  [[nodiscard]] const Formula* atom(std::uint32_t index) {
    return intern(Op::AtomRef, index, nullptr, nullptr);
  }
  [[nodiscard]] const Formula* negate(const Formula* a) {
    if (a->op == Op::True) return false_;
    if (a->op == Op::False) return true_;
    if (a->op == Op::Not) return a->lhs;
    return intern(Op::Not, 0, a, nullptr);
  }
  [[nodiscard]] const Formula* conj(const Formula* a, const Formula* b) {
    if (a->op == Op::False || b->op == Op::False) return false_;
    if (a->op == Op::True) return b;
    if (b->op == Op::True) return a;
    if (a == b) return a;
    return intern(Op::And, 0, a, b);
  }
  [[nodiscard]] const Formula* disj(const Formula* a, const Formula* b) {
    if (a->op == Op::True || b->op == Op::True) return true_;
    if (a->op == Op::False) return b;
    if (b->op == Op::False) return a;
    if (a == b) return a;
    return intern(Op::Or, 0, a, b);
  }
  [[nodiscard]] const Formula* next(const Formula* a) {
    return intern(Op::Next, 0, a, nullptr);
  }
  [[nodiscard]] const Formula* until(const Formula* a, const Formula* b) {
    if (b->op == Op::True || b->op == Op::False) return b;  // a U b ≡ b here
    return intern(Op::Until, 0, a, b);
  }
  [[nodiscard]] const Formula* release(const Formula* a, const Formula* b) {
    if (b->op == Op::True || b->op == Op::False) return b;  // a R b ≡ b here
    return intern(Op::Release, 0, a, b);
  }
  [[nodiscard]] const Formula* finally_(const Formula* a) {
    return until(true_, a);
  }
  [[nodiscard]] const Formula* globally(const Formula* a) {
    return release(false_, a);
  }
  [[nodiscard]] const Formula* implies(const Formula* a, const Formula* b) {
    return disj(negate(a), b);
  }

  /// Rewrite to negation normal form; with `negated` the result is the NNF
  /// of ¬f. Uses the duals And/Or, Until/Release, and X self-duality.
  [[nodiscard]] const Formula* to_nnf(const Formula* f, bool negated = false) {
    switch (f->op) {
      case Op::True: return negated ? false_ : true_;
      case Op::False: return negated ? true_ : false_;
      case Op::AtomRef: return negated ? negate(f) : f;
      case Op::Not: return to_nnf(f->lhs, !negated);
      case Op::And: {
        auto* l = to_nnf(f->lhs, negated);
        auto* r = to_nnf(f->rhs, negated);
        return negated ? disj(l, r) : conj(l, r);
      }
      case Op::Or: {
        auto* l = to_nnf(f->lhs, negated);
        auto* r = to_nnf(f->rhs, negated);
        return negated ? conj(l, r) : disj(l, r);
      }
      case Op::Next: return next(to_nnf(f->lhs, negated));
      case Op::Until: {
        auto* l = to_nnf(f->lhs, negated);
        auto* r = to_nnf(f->rhs, negated);
        return negated ? release(l, r) : until(l, r);
      }
      case Op::Release: {
        auto* l = to_nnf(f->lhs, negated);
        auto* r = to_nnf(f->rhs, negated);
        return negated ? until(l, r) : release(l, r);
      }
    }
    CCREF_ASSERT_MSG(false, "bad Op");
    return true_;
  }

  /// Render back to surface syntax (tests, error messages). Recognizes the
  /// F/G sugar it desugared.
  [[nodiscard]] std::string to_string(const Formula* f,
                                      const std::vector<Atom>& atoms) const;

 private:
  struct Key {
    Op op;
    std::uint32_t atom;
    const Formula* lhs;
    const Formula* rhs;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = static_cast<std::size_t>(k.op) * 0x9e3779b97f4a7c15ull;
      h ^= k.atom + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h ^= reinterpret_cast<std::size_t>(k.lhs) + (h << 6) + (h >> 2);
      h ^= reinterpret_cast<std::size_t>(k.rhs) + (h << 6) + (h >> 2);
      return h;
    }
  };

  const Formula* fresh(Op op, std::uint32_t atom, const Formula* lhs,
                       const Formula* rhs) {
    nodes_.push_back(Formula{op, static_cast<std::uint32_t>(nodes_.size()),
                             atom, lhs, rhs});
    return &nodes_.back();
  }

  const Formula* intern(Op op, std::uint32_t atom, const Formula* lhs,
                        const Formula* rhs) {
    Key key{op, atom, lhs, rhs};
    auto it = interned_.find(key);
    if (it != interned_.end()) return it->second;
    const Formula* f = fresh(op, atom, lhs, rhs);
    interned_.emplace(key, f);
    return f;
  }

  std::deque<Formula> nodes_;  // deque: pointers stay valid across growth
  std::unordered_map<Key, const Formula*, KeyHash> interned_;
  const Formula* true_;
  const Formula* false_;
};

}  // namespace ccref::ltl

// End-to-end LTL checking driver: parse -> negate -> NNF -> Büchi ->
// bind atoms -> fair lasso search (verify/liveness.hpp).
//
// compile() validates a user-supplied formula against a concrete system and
// reports errors as data (the examples print them); check_ltl() is the
// one-call form for known-good formulas (benches, tests) and hard-fails on
// a malformed property.
//
// Symmetry soundness: the quotient construction stores one representative
// per remote-permutation orbit, which preserves LTL verdicts only when
// every atom is invariant under those permutations. Atoms naming a concrete
// remote (granted(1), requested(0), remote(2,V)) break this, so check_ltl
// downgrades to SymmetryMode::Off for such formulas and records the
// downgrade in LivenessResult::note rather than returning a wrong verdict.
// (Fairness constraints are never orbit-invariant — per-process marks live
// in per-representative frames — so the engine itself downgrades any
// fairness-constrained search the same way; see liveness.hpp.)
#pragma once

#include <string_view>

#include "ltl/ap.hpp"
#include "ltl/buchi.hpp"
#include "ltl/parser.hpp"
#include "verify/liveness.hpp"

namespace ccref::ltl {

template <class Sys>
struct CompiledProperty {
  std::string error;  // non-empty => the rest is unusable
  std::string text;   // the property as given
  Buchi aut;          // automaton for the *negated* property
  std::vector<ApFn<typename Sys::State>> atoms;
  bool symmetric = true;  // all atoms remote-permutation invariant
};

template <class Sys>
[[nodiscard]] CompiledProperty<Sys> compile(const Sys& sys,
                                            std::string_view text) {
  CompiledProperty<Sys> out;
  out.text = std::string(text);
  FormulaFactory factory;
  ParseResult parsed = parse(text, factory);
  if (!parsed.error.empty()) {
    out.error = std::move(parsed.error);
    return out;
  }
  if (parsed.atoms.size() > 64) {
    out.error = "too many distinct atoms (limit 64)";
    return out;
  }
  auto bound = bind_atoms(sys, parsed.atoms);
  if (!bound.error.empty()) {
    out.error = std::move(bound.error);
    return out;
  }
  const Formula* negated = factory.to_nnf(parsed.formula, /*negated=*/true);
  out.aut = translate(negated, parsed.atoms.size());
  out.atoms = std::move(bound.eval);
  out.symmetric = bound.symmetric;
  return out;
}

template <class Sys>
[[nodiscard]] verify::LivenessResult check_ltl(
    const Sys& sys, std::string_view text,
    const verify::LivenessOptions& opts = {}) {
  auto prop = compile(sys, text);
  CCREF_REQUIRE_MSG(prop.error.empty(),
                    "check_ltl: malformed property (validate user input "
                    "with ltl::compile first)");
  verify::LivenessOptions run = opts;
  std::string note;
  if (run.symmetry == verify::SymmetryMode::Canonical && !prop.symmetric) {
    run.symmetry = verify::SymmetryMode::Off;
    note =
        "symmetry downgraded to off: the formula names concrete remotes, so "
        "the orbit quotient is unsound for it";
  }
  auto result = verify::find_accepting_lasso(sys, prop.aut, prop.atoms, run);
  if (!note.empty())
    result.note = result.note.empty() ? note : note + "; " + result.note;
  return result;
}

}  // namespace ccref::ltl

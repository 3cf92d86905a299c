// Atomic-proposition binding: from parsed atom spellings to predicates over
// concrete system states and transition labels.
//
// LTL letters here are *state-event* pairs: step i of a run contributes the
// valuation ν(s_{i-1} -> s_i) evaluated on the transition's source-side
// successor state s_i and its Label l_i. State predicates (control states,
// buffer occupancy, outstanding requests) read the state; event predicates
// (completion, grants, nacks) read the label — the paper's progress notions
// are edge properties ("completes a rendezvous"), so both are needed.
//
// Vocabulary (same names at both semantics; resolution differs):
//   completion        a rendezvous completed on this step           [event]
//   granted(i)        the step granted remote i's request (§6)      [event]
//   granted           the step granted some remote's request        [event]
//   nacked            the step sent a nack                          [event]
//   requested(i)      remote i has an outstanding request           [state]
//   requested         some remote has an outstanding request        [state]
//   home(NAME)        home control state is NAME                    [state]
//   remote(i,NAME)    remote i's control state is NAME              [state]
//   buffer_ge(c)      home request-buffer occupancy >= c            [state]
//
// Each bound atom carries a symmetry verdict: atoms naming a concrete
// remote index (granted(i), requested(i), remote(i,NAME)) are *not*
// invariant under remote permutation, so the liveness engine must not
// explore the symmetry-reduced quotient for formulas using them
// (check.hpp downgrades and says so).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ltl/formula.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"

namespace ccref::ltl {

template <class State>
using ApFn = std::function<bool(const State&, const sem::Label&)>;

template <class State>
struct BoundAtoms {
  std::vector<ApFn<State>> eval;  // one predicate per parsed atom
  bool symmetric = true;          // every atom remote-permutation invariant
  std::string error;              // non-empty => binding failed
};

[[nodiscard]] BoundAtoms<sem::RvState> bind_atoms(
    const sem::RendezvousSystem& sys, const std::vector<Atom>& atoms);

[[nodiscard]] BoundAtoms<runtime::AsyncState> bind_atoms(
    const runtime::AsyncSystem& sys, const std::vector<Atom>& atoms);

}  // namespace ccref::ltl

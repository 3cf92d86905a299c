// Symmetry (scalarset) reduction mode for the explicit-state engines.
//
// The paper's star topology is one home plus n *identical* remotes, so the
// global state space is invariant under any permutation of the remote
// indices: if state s is reachable, so is pi(s) for every permutation pi,
// and s violates an invariant iff pi(s) does (all shipped invariants are
// symmetric in the remote index). Under SymmetryMode::Canonical the
// checkers therefore store one *representative per orbit*: every state is
// canonicalized — remotes sorted into a canonical order, with the inducing
// permutation applied to every node-indexed fact — before it is encoded and
// hashed into the visited set. Reported state counts become orbit counts
// (<= the full count, by up to n!), error reachability is preserved, and
// counterexample traces are re-concretized during reconstruction by
// searching each orbit for a matching concrete successor.
//
// Canonicalization happens *before* hashing, so the reduction composes
// unchanged with every storage tier of CollapsedStateSet and
// ShardedStateSet (the parallel engine) — each of them only ever sees
// canonical byte encodings.
#pragma once

#include <optional>
#include <string_view>

namespace ccref::verify {

enum class SymmetryMode : std::uint8_t {
  Off,        // store every concrete state (bit-identical to prior results)
  Canonical,  // store one canonical representative per permutation orbit
};

[[nodiscard]] constexpr const char* to_string(SymmetryMode m) {
  switch (m) {
    case SymmetryMode::Off: return "off";
    case SymmetryMode::Canonical: return "canonical";
  }
  return "?";
}

/// Parse a `--symmetry` flag value; nullopt on anything unknown.
[[nodiscard]] inline std::optional<SymmetryMode> parse_symmetry(
    std::string_view text) {
  if (text == "off") return SymmetryMode::Off;
  if (text == "canonical" || text == "canon") return SymmetryMode::Canonical;
  return std::nullopt;
}

}  // namespace ccref::verify

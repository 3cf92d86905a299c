// A write-update DSM protocol (the classic alternative to invalidation).
//
// Sharers join a copyset with reqS/grS (fused under §3.3). A writer does not
// invalidate the other sharers: it sends the new value to the home (`wr`,
// acked), and the home pushes `upd` messages to every *other* sharer, each
// acknowledged individually. The home's sweep uses a scratch copy of the
// copyset (`rem := cs; rem -= {j}`), exercising NodeSet assignment in the
// expression language.
//
// Rendezvous-level coherence: whenever the home is idle in H, every sharer's
// cached value equals memory — write propagation is atomic at this level,
// which is exactly the designer's intended view (§1).
#pragma once

#include <functional>
#include <string>

#include "ir/process.hpp"
#include "sem/rendezvous.hpp"

namespace ccref::protocols {

/// Two data values, so that writes are visible.
[[nodiscard]] ir::Protocol make_write_update();

/// Coherence of values: home idle in H implies every remote in S caches
/// exactly `mem`; sharers are always recorded in the copyset.
[[nodiscard]] std::function<std::string(const sem::RvState&)>
write_update_invariant(const ir::Protocol& protocol, int num_remotes);

}  // namespace ccref::protocols

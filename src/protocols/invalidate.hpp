// The invalidate protocol — the second Avalanche DSM protocol the paper
// verifies in Table 3.
//
// The paper does not reprint its figures, so this is a reconstruction of the
// standard directory invalidate (MSI) protocol in the paper's rendezvous
// style: the home tracks a copyset `cs` of sharers and an exclusive owner
// `o`; read requests are granted shared copies; a write request triggers a
// rendezvous invalidation sweep over the copyset (each `inv` rendezvous *is*
// the invalidation acknowledgement) or a revocation (`rvk`/`WB`) of the
// exclusive owner. Sharers may silently decide to evict, which they must
// report with `drop`; the exclusive owner writes back with `WB`.
#pragma once

#include <functional>
#include <string>

#include "ir/process.hpp"
#include "runtime/async_state.hpp"
#include "sem/rendezvous.hpp"

namespace ccref::protocols {

/// One data value (see MigratoryOptions::data_domain).
[[nodiscard]] ir::Protocol make_invalidate();

/// Safety invariant at the rendezvous level:
///   - at most one remote is in M / WBACK (dirty states);
///   - a dirty remote implies the home records exclusivity and that owner;
///   - exclusivity implies an empty copyset;
///   - a remote in S is recorded in the copyset.
[[nodiscard]] std::function<std::string(const sem::RvState&)>
invalidate_invariant(const ir::Protocol& protocol, int num_remotes);

/// Exclusivity stated directly on asynchronous states: at most one dirty
/// remote (M / WBACK), and no shared copies coexist with a dirty one.
[[nodiscard]] std::function<std::string(const runtime::AsyncState&)>
invalidate_async_invariant(const ir::Protocol& protocol, int num_remotes);

}  // namespace ccref::protocols

// The refinement procedure's static analysis (paper §3).
//
// refine() inspects the syntactic structure of a validated rendezvous
// protocol and produces a RefinedProtocol: a per-message classification and
// the fusion tables the asynchronous runtime interprets.
//
// Message classes:
//   Normal       — generic scheme: request for rendezvous answered by an
//                  explicit ack or nack (§3, rules R1-R3).
//   FusedRequest — first half of a §3.3 request/reply pair: consuming the
//                  request completes no handshake; the later reply acts as
//                  the ack (req and inv in the migratory protocol).
//   Reply        — second half of a pair: sent fire-and-forget, doubles as
//                  the ack of the FusedRequest (gr and ID).
//   ElideAck     — hand-design deviation (Options::elide_ack): the sender
//                  commits at send time; the home must always accept.
//   Broadcast    — bus transaction (`bcast!` under topology bus): refined to
//                  a split transaction (request, home-sequenced snoops, ack)
//                  by the runtime; never participates in §3.3 fusion.
#pragma once

#include <optional>
#include <vector>

#include "ir/process.hpp"
#include "refine/options.hpp"

namespace ccref::refine {

enum class MsgClass : std::uint8_t {
  Normal,
  FusedRequest,
  Reply,
  ElideAck,
  Broadcast,
};

[[nodiscard]] constexpr const char* to_string(MsgClass c) {
  switch (c) {
    case MsgClass::Normal: return "normal";
    case MsgClass::FusedRequest: return "fused-request";
    case MsgClass::Reply: return "reply";
    case MsgClass::ElideAck: return "elide-ack";
    case MsgClass::Broadcast: return "broadcast";
  }
  return "?";
}

/// Remote-active fusion (req/gr pattern): the remote's active state A sends
/// `request`; A's successor W is passive with a single input guard for
/// `reply`, which the home sends fire-and-forget.
struct RemoteFusion {
  ir::StateId active_state = ir::kNoState;  // A
  ir::MsgId request = 0;                    // sent from A
  ir::StateId wait_state = ir::kNoState;    // W = A.out.next
  ir::MsgId reply = 0;                      // W's only input
};

/// Home-active fusion (inv/ID pattern): a home output guard sends `request`;
/// the remote's matching input guard leads straight to an active state that
/// answers `reply`; the home's successor state consumes the reply.
struct HomeFusion {
  ir::StateId home_state = ir::kNoState;  // state holding the output guard
  std::size_t out_guard = 0;              // index of that guard
  ir::MsgId request = 0;
  ir::MsgId reply = 0;
};

struct RefinedProtocol {
  const ir::Protocol* base = nullptr;
  Options options;
  std::vector<MsgClass> msg_class;   // indexed by MsgId
  std::vector<RemoteFusion> remote_fusions;
  std::vector<HomeFusion> home_fusions;

  [[nodiscard]] MsgClass cls(ir::MsgId m) const { return msg_class[m]; }

  /// Fusion record for a remote active state, if any.
  [[nodiscard]] const RemoteFusion* remote_fusion_at(ir::StateId a) const;

  /// Fusion record for a home output guard, if any.
  [[nodiscard]] const HomeFusion* home_fusion_at(ir::StateId s,
                                                 std::size_t guard) const;

  /// True if the remote input guard `ig` (in state `s`) is the remote half
  /// of a home-active fusion: its next state actively replies.
  [[nodiscard]] bool remote_replies_through(const ir::InputGuard& ig) const;
};

/// Run the refinement analysis. The protocol must validate without errors
/// (ir::validate); violations abort via contract failure.
[[nodiscard]] RefinedProtocol refine(const ir::Protocol& protocol,
                                     const Options& options = {});
/// The result keeps a pointer to its protocol (RefinedProtocol::base), so
/// refining a temporary would leave it dangling: a compile error instead.
RefinedProtocol refine(ir::Protocol&&, const Options& = {}) = delete;

}  // namespace ccref::refine

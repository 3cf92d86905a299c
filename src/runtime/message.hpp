// Wire messages of the asynchronous (refined) protocol.
//
// The refinement splits each rendezvous into a *request for rendezvous* and
// an ack/nack (§3). Fused request/reply pairs (§3.3) add a fourth kind: a
// reply that simultaneously acks the request and carries the second
// rendezvous. A request/reply carries the original rendezvous message id and
// payload; acks and nacks are pure control.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/types.hpp"
#include "support/bytes.hpp"

namespace ccref::runtime {

/// Snoop/SnoopAck implement the split bus transaction (topology bus): the
/// home forwards an admitted broadcast request to each other remote as a
/// Snoop (src = the original requester, so snoop guards bind it), and the
/// remote answers with a SnoopAck. A SnoopAck's `msg` field is reused as a
/// flag: 1 means answering the snoop cancelled the remote's own in-flight
/// request (it left its active state through a `bcast?` guard), telling the
/// home to discard that request wherever it surfaces.
enum class Meta : std::uint8_t { Req, Ack, Nack, Repl, Snoop, SnoopAck };

[[nodiscard]] constexpr const char* to_string(Meta m) {
  switch (m) {
    case Meta::Req: return "REQ";
    case Meta::Ack: return "ACK";
    case Meta::Nack: return "NACK";
    case Meta::Repl: return "REPL";
    case Meta::Snoop: return "SNOOP";
    case Meta::SnoopAck: return "SNOOPACK";
  }
  return "?";
}

struct Msg {
  Meta meta = Meta::Req;
  ir::MsgId msg = 0;      // meaningful for Req/Repl
  std::uint8_t src = 0;   // sender: node id, or kHomeSrc for the home
  std::vector<ir::Value> payload;

  static constexpr std::uint8_t kHomeSrc = 0xff;

  friend bool operator==(const Msg&, const Msg&) = default;

  void encode(ByteSink& sink) const {
    sink.u8(static_cast<std::uint8_t>(meta));
    sink.u8(msg);
    sink.u8(src);
    sink.u8(static_cast<std::uint8_t>(payload.size()));
    for (ir::Value v : payload) sink.varint(v);
  }

  /// Overwrite this message with the next encoded one, reusing the
  /// payload's capacity.
  void decode_into(ByteSource& src_) {
    meta = static_cast<Meta>(src_.u8());
    msg = src_.u8();
    src = src_.u8();
    payload.resize(src_.u8());
    for (ir::Value& v : payload) v = src_.varint();
  }
};

/// Reliable, in-order, point-to-point FIFO channel (§2.2's network model).
struct Channel {
  std::vector<Msg> q;  // front at index 0; channels hold only a few messages

  [[nodiscard]] bool empty() const { return q.empty(); }
  [[nodiscard]] std::size_t size() const { return q.size(); }
  [[nodiscard]] const Msg& front() const { return q.front(); }
  void push(Msg m) { q.push_back(std::move(m)); }
  void pop() { q.erase(q.begin()); }

  friend bool operator==(const Channel&, const Channel&) = default;

  void encode(ByteSink& sink) const {
    sink.u8(static_cast<std::uint8_t>(q.size()));
    for (const Msg& m : q) m.encode(sink);
  }

  /// Overwrite this channel with the next encoded one, reusing the queue's
  /// and the surviving messages' capacity.
  void decode_into(ByteSource& src) {
    q.resize(src.u8());
    for (Msg& m : q) m.decode_into(src);
  }
};

}  // namespace ccref::runtime

// Cross-net messages and their checkpoint metadata.
//
// Paper §IV-A distinguishes *top-down* messages (parent → descendant,
// applied directly once the parent commits them), *bottom-up* messages
// (descendant → ancestor, carried as CrossMsgMeta inside checkpoints), and
// *path* messages (bottom-up to the least common ancestor, then top-down).
// A CrossMsg pairs a chain::Message with fully-qualified source and
// destination (SubnetId, Address) endpoints plus the protocol-assigned
// nonce that fixes its total order of application in the destination.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/message.hpp"
#include "core/subnet_id.hpp"

namespace hc::core {

/// Which way a message travels relative to the current subnet.
enum class CrossMsgKind : std::uint8_t {
  kTopDown = 0,
  kBottomUp = 1,
  kPath = 2,  // needs both legs (not in the same branch)
};

struct CrossMsg {
  SubnetId from_subnet;
  SubnetId to_subnet;
  chain::Message msg;     // msg.from/to are subnet-local addresses
  std::uint64_t nonce = 0;  // assigned by the committing SCA

  /// Classify relative routing (paper §IV-A).
  [[nodiscard]] CrossMsgKind kind() const;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.from_subnet).obj(s.to_subnet).obj(s.msg).varint(s.nonce);
  }
  [[nodiscard]] Cid cid() const;
  bool operator==(const CrossMsg&) const = default;
};

/// A batch of cross-msgs moving together between two subnets; the unit
/// that CrossMsgMeta commits to by CID.
struct CrossMsgBatch {
  std::vector<CrossMsg> msgs;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.vec(s.msgs);
  }
  [[nodiscard]] Cid cid() const {
    return Cid::of(CidCodec::kCrossMsgs, encode(*this));
  }
  /// Total token value carried by the batch.
  [[nodiscard]] TokenAmount total_value() const;
  bool operator==(const CrossMsgBatch&) const = default;
};

/// Checkpoint-carried metadata for one batch (paper §III-B:
/// "crossMeta = (from, to, nonce, msgsCid)").
struct CrossMsgMeta {
  SubnetId from;
  SubnetId to;
  std::uint64_t nonce = 0;  // assigned when the destination's SCA adopts it
  Cid msgs_cid;             // CID of the CrossMsgBatch
  std::uint32_t msg_count = 0;
  TokenAmount value;        // total tokens carried (for supply accounting)

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.from).obj(s.to).varint(s.nonce).obj(s.msgs_cid);
    io.u32(s.msg_count).obj(s.value);
  }
  bool operator==(const CrossMsgMeta&) const = default;
};

}  // namespace hc::core

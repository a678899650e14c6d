// Blocks and headers.
//
// Paper §IV-B: "Blocks in subnets include both messages originated within
// the subnet and cross-msgs targeting (or traversing) the subnet" — hence
// the two message sections. Cross-msgs are unsigned protocol-injected
// messages whose validity is checked against parent state / checkpoints by
// the consensus layer rather than by signature.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/message.hpp"
#include "common/cid.hpp"
#include "crypto/merkle.hpp"

namespace hc::chain {

/// Chain height / consensus epoch.
using Epoch = std::int64_t;

struct BlockHeader {
  Address miner;
  Epoch height = 0;
  Cid parent;           // previous block CID (null for genesis)
  Cid state_root;       // state after executing this block
  Digest msgs_root{};   // merkle root over all included messages
  std::int64_t timestamp = 0;  // simulated time (microseconds)
  Bytes ticket;         // consensus-specific randomness/leader proof
  Bytes proof;          // consensus-specific commitment (e.g. quorum cert)

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.miner).i64(s.height).obj(s.parent).obj(s.state_root);
    io.raw(s.msgs_root).i64(s.timestamp).bytes(s.ticket).bytes(s.proof);
  }
  [[nodiscard]] Cid cid() const;
  bool operator==(const BlockHeader&) const = default;
};

struct Block {
  BlockHeader header;
  std::vector<SignedMessage> messages;   // subnet-internal, user-signed
  std::vector<Message> cross_messages;   // protocol-injected cross-msgs

  /// Recompute the merkle root over both message sections.
  [[nodiscard]] Digest compute_msgs_root() const;

  /// Deterministic logical footprint: fixed struct sizes plus dynamic
  /// payloads (params, ticket, proof). Feeds the chain store's retention
  /// accounting (DESIGN.md §17); never allocator capacities.
  [[nodiscard]] std::size_t mem_bytes() const;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.header).vec(s.messages).vec(s.cross_messages);
  }
  [[nodiscard]] Cid cid() const { return header.cid(); }
  bool operator==(const Block&) const = default;
};

}  // namespace hc::chain

// Consensus wire messages, shared by all engines.
#pragma once

#include <cstdint>

#include "chain/block.hpp"
#include "crypto/schnorr.hpp"

namespace hc::consensus {

/// The BFT vote kinds are the phases of a BftPolicy (consensus/bft.hpp).
enum class WireKind : std::uint8_t {
  kBlock = 0,      // committed/announced block (every engine, catch-up)
  kProposal = 1,   // BftEngine proposal carrying a block
  kPrevote = 2,    // Tendermint policy, first vote phase
  kPrecommit = 3,  // Tendermint policy, last phase: its QuorumCert
  kAck = 4,        // rrBFT policy's one phase (its QuorumCert); null CID =
                   // BlockSync request
  kLast = kAck,
};

/// One consensus message. Votes reference blocks by CID; kBlock/kProposal
/// carry the encoded block. `signature` covers (kind, height, round, cid)
/// so votes are non-forgeable and usable in quorum certificates.
struct WireMsg {
  WireKind kind = WireKind::kBlock;
  chain::Epoch height = 0;
  std::uint32_t round = 0;
  Cid block_cid;       // null for nil-votes
  Bytes block;         // encoded chain::Block; empty for votes
  Bytes extra;         // engine-specific (e.g. commit certificates)
  crypto::PublicKey sender;
  crypto::Signature signature;

  /// The signed payload for this message's (kind, height, round, cid).
  [[nodiscard]] static Bytes signing_payload(WireKind kind,
                                             chain::Epoch height,
                                             std::uint32_t round,
                                             const Cid& cid);

  /// Build and sign a message.
  [[nodiscard]] static WireMsg make(WireKind kind, chain::Epoch height,
                                    std::uint32_t round, const Cid& cid,
                                    Bytes block, const crypto::KeyPair& key);

  /// Check the signature against `sender`.
  [[nodiscard]] bool verify() const;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.enumeration(s.kind).i64(s.height).u32(s.round).obj(s.block_cid);
    io.bytes(s.block).bytes(s.extra).obj(s.sender).obj(s.signature);
  }
};

/// A quorum certificate: the votes that justified a commit. Stored as the
/// block's consensus proof and reused as checkpoint evidence.
struct QuorumCert {
  chain::Epoch height = 0;
  std::uint32_t round = 0;
  Cid block_cid;
  std::vector<crypto::PublicKey> signers;
  std::vector<crypto::Signature> signatures;

  /// Verify every signature is a valid precommit/ack for (height, round,
  /// cid) and that there are at least `quorum` distinct signers.
  [[nodiscard]] bool verify(WireKind vote_kind, std::size_t quorum) const;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.i64(s.height).u32(s.round).obj(s.block_cid);
    io.vec(s.signers).vec(s.signatures);
  }
};

}  // namespace hc::consensus

// Checkpoints: the anchor of subnet security and the carrier of bottom-up
// cross-msgs.
//
// Paper §III-B: "Checkpoints include the following data:
// ⟨s, proof, prev, children, crossMeta⟩" — source subnet, CID of the latest
// committed subnet block, pointer to the previous checkpoint, the tree of
// child checkpoints aggregated this period, and the CrossMsgMeta tree.
// Checkpoints are signed under the subnet's SA-defined signature policy
// (single signer / multi-signature / threshold) and committed to the parent
// chain, recursively propagating to the rootnet.
#pragma once

#include <vector>

#include "chain/block.hpp"
#include "core/crossmsg.hpp"
#include "crypto/schnorr.hpp"

namespace hc::core {

/// A child subnet's checkpoint CIDs aggregated into this checkpoint.
struct ChildCheck {
  SubnetId subnet;
  std::vector<Cid> checkpoints;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.subnet).vec(s.checkpoints);
  }
  bool operator==(const ChildCheck&) const = default;
};

struct Checkpoint {
  SubnetId source;           // s
  chain::Epoch epoch = 0;    // subnet height this checkpoint commits
  Cid proof;                 // CID of the latest committed subnet block
  Cid prev;                  // CID of the previous checkpoint (null = first)
  std::vector<ChildCheck> children;
  std::vector<CrossMsgMeta> cross_meta;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.source).i64(s.epoch).obj(s.proof).obj(s.prev);
    io.vec(s.children).vec(s.cross_meta);
  }
  [[nodiscard]] Cid cid() const;
  bool operator==(const Checkpoint&) const = default;

  /// Total bottom-up value leaving this subnet in this checkpoint.
  [[nodiscard]] TokenAmount outgoing_value() const;
};

/// One validator's signature over a checkpoint CID digest.
struct CheckpointSignature {
  crypto::PublicKey signer;
  crypto::Signature signature;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.signer).obj(s.signature);
  }
  bool operator==(const CheckpointSignature&) const = default;
};

/// Checkpoint plus its policy proof (the signature set).
struct SignedCheckpoint {
  Checkpoint checkpoint;
  std::vector<CheckpointSignature> signatures;

  /// The byte string validators sign: the checkpoint CID digest.
  [[nodiscard]] static Bytes signing_payload(const Checkpoint& cp);

  /// Same payload derived from a bare CID: a signature share can be
  /// verified against the cid it claims without knowing the checkpoint
  /// content behind it (equivocation watchers rely on this).
  [[nodiscard]] static Bytes signing_payload_for(const Cid& cid);

  /// Append `key`'s signature.
  void add_signature(const crypto::KeyPair& key);

  /// Verify every attached signature against the payload (membership /
  /// threshold checks are the SignaturePolicy's job — see policy.hpp).
  [[nodiscard]] bool signatures_valid() const;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.checkpoint).vec(s.signatures);
  }
  bool operator==(const SignedCheckpoint&) const = default;
};

}  // namespace hc::core

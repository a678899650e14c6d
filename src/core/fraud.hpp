// Fraud (equivocation) proofs.
//
// Paper §III-B: "Checkpoints for a subnet can be verified at any point using
// the state of the subnet chain which can then be used to generate
// equivocation proofs (or so-called fraud proofs) which, in turn, can be
// used for penalizing misbehaving entities ('slashing')."
//
// The canonical fraud here is checkpoint equivocation: two differing
// checkpoints for the same (subnet, epoch), both signed by an overlapping
// set of validators. Any full node can assemble such a proof and submit it
// to the parent SCA, which slashes the guilty validators' collateral.
#pragma once

#include <vector>

#include "core/checkpoint.hpp"
#include "core/policy.hpp"

namespace hc::core {

struct FraudProof {
  SignedCheckpoint first;
  SignedCheckpoint second;

  /// Validate the proof and return the equivocating signers: both
  /// checkpoints must target the same (subnet, epoch), differ in content,
  /// carry valid signatures, and share at least one signer. Signers listed
  /// are those that signed BOTH sides.
  [[nodiscard]] Result<std::vector<crypto::PublicKey>> guilty_signers() const;

  /// Canonical content id for replay dedup: the two sides are ordered by
  /// their encoding before hashing, so a mirrored proof (first/second
  /// swapped) hashes to the same digest.
  [[nodiscard]] Cid digest() const;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.first).obj(s.second);
  }
  bool operator==(const FraudProof&) const = default;
};

}  // namespace hc::core

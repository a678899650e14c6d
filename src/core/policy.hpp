// Checkpoint signature policies.
//
// Paper §III-B: "The specific signature policy is defined in the SA and
// determines the type and minimum number of signatures required for a
// checkpoint to be accepted ... Different signature schemes may be used
// here, including multi-signatures or threshold signatures among subnet
// miners."
//
// kThreshold is *functionally* verified the same way as kMultiSig (t
// distinct valid validator signatures) — a faithful BLS-style aggregate is
// out of scope — but its wire footprint is modeled by compact_proof_size()
// as a single aggregate signature, which is what the checkpoint-size bench
// (E2) measures. This substitution is recorded in DESIGN.md §2.
#pragma once

#include <cstdint>
#include <vector>

#include "core/checkpoint.hpp"

namespace hc::core {

enum class SignaturePolicyKind : std::uint8_t {
  kSingle = 0,     // any one registered validator
  kMultiSig = 1,   // at least `threshold` distinct validator signatures
  kThreshold = 2,  // t-of-n threshold signature (aggregate)
  kLast = kThreshold,
};

struct SignaturePolicy {
  SignaturePolicyKind kind = SignaturePolicyKind::kMultiSig;
  std::uint32_t threshold = 1;

  /// Classic BFT quorum policy: 2f+1 of n, f = (n-1)/3.
  [[nodiscard]] static SignaturePolicy bft_quorum(std::size_t n_validators);
  /// Simple majority policy: floor(n/2)+1 of n.
  [[nodiscard]] static SignaturePolicy majority(std::size_t n_validators);

  /// Signatures the policy needs: one for kSingle, else `threshold`.
  [[nodiscard]] std::uint32_t required() const {
    return kind == SignaturePolicyKind::kSingle ? 1 : threshold;
  }

  /// Verify `sc` against the subnet's registered validator keys: every
  /// signature must be cryptographically valid, from a registered validator,
  /// with no duplicates, and the count must satisfy the policy.
  [[nodiscard]] Status verify(
      const SignedCheckpoint& sc,
      const std::vector<crypto::PublicKey>& validators) const;

  /// Serialized proof size in bytes under this policy (threshold policies
  /// aggregate to a single signature on the wire).
  [[nodiscard]] std::size_t compact_proof_size(std::size_t n_signatures) const;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.enumeration(s.kind).u32(s.threshold);
  }
  bool operator==(const SignaturePolicy&) const = default;
};

}  // namespace hc::core

#include "crypto/sigcache.hpp"
#include "core/policy.hpp"

#include <algorithm>
#include <set>

namespace hc::core {

SignaturePolicy SignaturePolicy::bft_quorum(std::size_t n_validators) {
  const std::size_t f = n_validators >= 1 ? (n_validators - 1) / 3 : 0;
  return SignaturePolicy{SignaturePolicyKind::kMultiSig,
                         static_cast<std::uint32_t>(2 * f + 1)};
}

SignaturePolicy SignaturePolicy::majority(std::size_t n_validators) {
  return SignaturePolicy{SignaturePolicyKind::kMultiSig,
                         static_cast<std::uint32_t>(n_validators / 2 + 1)};
}

Status SignaturePolicy::verify(
    const SignedCheckpoint& sc,
    const std::vector<crypto::PublicKey>& validators) const {
  // Count distinct, registered, cryptographically valid signers.
  const Bytes payload = SignedCheckpoint::signing_payload(sc.checkpoint);
  std::set<Bytes> seen;
  std::uint32_t valid = 0;
  for (const auto& s : sc.signatures) {
    const Bytes key_bytes = s.signer.to_bytes();
    if (!seen.insert(key_bytes).second) {
      return Error(Errc::kInvalidSignature, "duplicate checkpoint signer");
    }
    const bool registered =
        std::find(validators.begin(), validators.end(), s.signer) !=
        validators.end();
    if (!registered) {
      return Error(Errc::kPermissionDenied,
                   "checkpoint signer is not a registered validator");
    }
    if (!crypto::verify_cached(s.signer, payload, s.signature)) {
      return Error(Errc::kInvalidSignature, "invalid checkpoint signature");
    }
    ++valid;
  }
  if (valid < required()) {
    return Error(Errc::kPermissionDenied,
                 "policy requires " + std::to_string(required()) +
                     " signatures, got " + std::to_string(valid));
  }
  return ok_status();
}

std::size_t SignaturePolicy::compact_proof_size(
    std::size_t n_signatures) const {
  constexpr std::size_t kSigBytes = 96;
  constexpr std::size_t kKeyBytes = 64;
  switch (kind) {
    case SignaturePolicyKind::kSingle:
      return kSigBytes + kKeyBytes;
    case SignaturePolicyKind::kMultiSig:
      return n_signatures * (kSigBytes + kKeyBytes);
    case SignaturePolicyKind::kThreshold:
      // One aggregate signature plus a signer bitmap.
      return kSigBytes + (n_signatures + 7) / 8;
  }
  return 0;
}

}  // namespace hc::core

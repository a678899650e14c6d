#include "crypto/sigcache.hpp"
#include "core/checkpoint.hpp"

namespace hc::core {

Cid Checkpoint::cid() const {
  return Cid::of(CidCodec::kCheckpoint, encode(*this));
}

TokenAmount Checkpoint::outgoing_value() const {
  TokenAmount total;
  for (const auto& m : cross_meta) {
    if (m.from == source) total += m.value;
  }
  return total;
}

Bytes SignedCheckpoint::signing_payload(const Checkpoint& cp) {
  return signing_payload_for(cp.cid());
}

Bytes SignedCheckpoint::signing_payload_for(const Cid& cid) {
  Bytes payload = to_bytes("hc/checkpoint-sig");
  append(payload, BytesView(cid.digest().data(), cid.digest().size()));
  return payload;
}

void SignedCheckpoint::add_signature(const crypto::KeyPair& key) {
  const Bytes payload = signing_payload(checkpoint);
  signatures.push_back(
      CheckpointSignature{key.public_key(), key.sign(payload)});
}

bool SignedCheckpoint::signatures_valid() const {
  const Bytes payload = signing_payload(checkpoint);
  for (const auto& s : signatures) {
    if (!crypto::verify_cached(s.signer, payload, s.signature)) return false;
  }
  return true;
}

}  // namespace hc::core

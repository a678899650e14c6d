#include "crypto/sigcache.hpp"
#include "consensus/wire.hpp"

#include <set>

namespace hc::consensus {

Bytes WireMsg::signing_payload(WireKind kind, chain::Epoch height,
                               std::uint32_t round, const Cid& cid) {
  Encoder e;
  e.str("hc/consensus-vote");
  e.enumeration(kind).i64(height).u32(round).obj(cid);
  return std::move(e).take();
}

WireMsg WireMsg::make(WireKind kind, chain::Epoch height, std::uint32_t round,
                      const Cid& cid, Bytes block,
                      const crypto::KeyPair& key) {
  WireMsg m;
  m.kind = kind;
  m.height = height;
  m.round = round;
  m.block_cid = cid;
  m.block = std::move(block);
  m.sender = key.public_key();
  m.signature = key.sign(signing_payload(kind, height, round, cid));
  return m;
}

bool WireMsg::verify() const {
  return crypto::verify_cached(
      sender, signing_payload(kind, height, round, block_cid), signature);
}

bool QuorumCert::verify(WireKind vote_kind, std::size_t quorum) const {
  if (signers.size() != signatures.size()) return false;
  const Bytes payload =
      WireMsg::signing_payload(vote_kind, height, round, block_cid);
  std::set<Bytes> seen;
  std::size_t valid = 0;
  for (std::size_t i = 0; i < signers.size(); ++i) {
    if (!seen.insert(signers[i].to_bytes()).second) return false;
    if (!crypto::verify_cached(signers[i], payload, signatures[i])) {
      return false;
    }
    ++valid;
  }
  return valid >= quorum;
}

}  // namespace hc::consensus

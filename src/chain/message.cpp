#include "crypto/sigcache.hpp"
#include "chain/message.hpp"
#include "obs/profile.hpp"

namespace hc::chain {

Cid Message::cid() const { return Cid::of(CidCodec::kMessage, encode(*this)); }

SignedMessage SignedMessage::sign(Message msg, const crypto::KeyPair& key) {
  static const obs::PhaseId sign_phase =
      obs::Profiler::instance().phase("crypto/sign");
  obs::ProfileScope prof(sign_phase);
  SignedMessage sm;
  sm.message = std::move(msg);
  sm.pubkey = key.public_key();
  sm.signature = key.sign(encode(sm.message));
  return sm;
}

bool SignedMessage::verify() const {
  if (!sender_matches_key()) return false;
  return crypto::verify_cached(pubkey, encode(message), signature);
}

bool SignedMessage::sender_matches_key() const {
  return message.from == Address::key(pubkey.to_bytes());
}

Cid SignedMessage::cid() const {
  return Cid::of(CidCodec::kMessage, encode(*this));
}

}  // namespace hc::chain

// Chain messages (transactions) and their signed envelope.
//
// A Message is the unit of state mutation: a call from one actor to another
// carrying value, a method number and encoded parameters. User-submitted
// messages travel as SignedMessage; cross-net messages arrive as *implicit*
// messages injected by the protocol (paper §IV-B) and carry no signature —
// their authenticity derives from the parent chain state or a committed
// checkpoint instead.
#pragma once

#include <cstdint>

#include "common/address.hpp"
#include "common/cid.hpp"
#include "common/codec.hpp"
#include "common/token.hpp"
#include "crypto/schnorr.hpp"

namespace hc::chain {

/// Actor method selector. Method 0 is a bare value transfer everywhere.
using MethodNum = std::uint64_t;

struct Message {
  Address from;
  Address to;
  std::uint64_t nonce = 0;
  TokenAmount value;
  MethodNum method = 0;
  Bytes params;
  std::uint64_t gas_limit = 0;
  TokenAmount gas_price;  // atto per gas unit

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.from).obj(s.to).varint(s.nonce).obj(s.value).varint(s.method);
    io.bytes(s.params).varint(s.gas_limit).obj(s.gas_price);
  }

  /// Content id of the canonical encoding.
  [[nodiscard]] Cid cid() const;

  bool operator==(const Message&) const = default;
};

/// A message plus the sender's signature over its CID digest.
struct SignedMessage {
  Message message;
  crypto::PublicKey pubkey;
  crypto::Signature signature;

  /// Sign `msg` with `key`; the sender address must be derived from the
  /// signing key (Address::key of the public key) for verify() to pass.
  [[nodiscard]] static SignedMessage sign(Message msg,
                                          const crypto::KeyPair& key);

  /// Check the signature AND that `message.from` matches the public key.
  [[nodiscard]] bool verify() const;

  /// The sender-address binding half of verify(): message.from must be the
  /// key address of the attached public key.
  [[nodiscard]] bool sender_matches_key() const;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.message).obj(s.pubkey).obj(s.signature);
  }

  [[nodiscard]] Cid cid() const;

  bool operator==(const SignedMessage&) const = default;
};

}  // namespace hc::chain

// Deterministic Schnorr signatures over secp256k1.
//
// The scheme follows BIP340's structure with two simplifications that are
// irrelevant to the protocols built on top: public keys and nonce points are
// carried as full (x, y) affine pairs instead of x-only keys, and the nonce
// derivation uses a tagged SHA-256 of (secret key, message) rather than the
// BIP340 auxiliary-randomness construction. Signing is fully deterministic,
// which the discrete-event simulator relies on for reproducibility.
//
//   sign(d, m):  k = H_tag("hc/nonce", d, m) mod n;  R = k*G
//                e = H_tag("hc/chal", R, P, m) mod n; s = k + e*d mod n
//                signature = (R, s)
//   verify:      s*G - e*P == R   (e*P from the key's comb once the key
//                recurs, else by GLV + Strauss–Shamir; crypto/keytable.hpp)
//
// Both verify and PublicKey::from_bytes reject a coordinate >= p, so every
// key and nonce point has exactly one accepted encoding.
#pragma once

#include <array>
#include <string_view>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/result.hpp"
#include "crypto/ec.hpp"
#include "crypto/u256.hpp"

namespace hc::crypto {

/// Domain-separated hash: SHA256(SHA256(tag) || SHA256(tag) || parts...).
/// The doubled tag digest is exactly one 64-byte SHA-256 block, so the
/// constructor absorbs it once and every hash resumes from that midstate.
class TaggedHash {
 public:
  explicit TaggedHash(std::string_view tag);

  [[nodiscard]] Digest operator()(std::initializer_list<BytesView> parts) const;

 private:
  Sha256 prefix_;
};

/// A serialized public key: 64 bytes (x || y, big-endian).
class PublicKey {
 public:
  PublicKey() = default;
  PublicKey(const U256& x, const U256& y) : x_(x), y_(y) {}

  [[nodiscard]] const U256& x() const { return x_; }
  [[nodiscard]] const U256& y() const { return y_; }

  /// 64-byte serialization (also the preimage for key Addresses).
  [[nodiscard]] Bytes to_bytes() const;
  /// The same 64 bytes, on the stack.
  [[nodiscard]] std::array<std::uint8_t, 64> to_array() const;
  /// Rejects a wrong length, a coordinate >= p and an off-curve point.
  [[nodiscard]] static Result<PublicKey> from_bytes(BytesView bytes);

  [[nodiscard]] bool valid() const { return Point::is_on_curve(x_, y_); }

  friend bool operator==(const PublicKey&, const PublicKey&) = default;

  void encode_to(Encoder& e) const { e.raw(to_array()); }
  [[nodiscard]] static Result<PublicKey> decode_from(Decoder& d);

 private:
  U256 x_;
  U256 y_;
};

/// A Schnorr signature (R.x, R.y, s): 96 bytes serialized.
class Signature {
 public:
  Signature() = default;
  Signature(const U256& rx, const U256& ry, const U256& s)
      : rx_(rx), ry_(ry), s_(s) {}

  [[nodiscard]] Bytes to_bytes() const;
  /// The same 96 bytes, on the stack.
  [[nodiscard]] std::array<std::uint8_t, 96> to_array() const;
  [[nodiscard]] static Result<Signature> from_bytes(BytesView bytes);

  [[nodiscard]] const U256& rx() const { return rx_; }
  [[nodiscard]] const U256& ry() const { return ry_; }
  [[nodiscard]] const U256& s() const { return s_; }

  friend bool operator==(const Signature&, const Signature&) = default;

  void encode_to(Encoder& e) const { e.raw(to_array()); }
  [[nodiscard]] static Result<Signature> decode_from(Decoder& d);

 private:
  U256 rx_;
  U256 ry_;
  U256 s_;
};

/// A signing key pair. Create via KeyPair::from_seed — deterministic, so
/// simulation runs are reproducible.
class KeyPair {
 public:
  /// Derive a key pair from arbitrary seed bytes (d = H(seed) mod n, d != 0).
  [[nodiscard]] static KeyPair from_seed(BytesView seed);

  /// Convenience: derive from a printable label ("validator-3").
  [[nodiscard]] static KeyPair from_label(std::string_view label);

  [[nodiscard]] const PublicKey& public_key() const { return pub_; }

  /// Sign a message (deterministic nonce).
  [[nodiscard]] Signature sign(BytesView message) const;

 private:
  KeyPair(const U256& secret, PublicKey pub) : secret_(secret), pub_(pub) {}

  U256 secret_;
  PublicKey pub_;
};

/// Verify a signature over `message` by `pub`. Never throws.
[[nodiscard]] bool verify(const PublicKey& pub, BytesView message,
                          const Signature& sig);

}  // namespace hc::crypto

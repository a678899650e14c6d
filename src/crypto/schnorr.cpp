#include "crypto/schnorr.hpp"

#include <cassert>
#include <memory>

#include "crypto/keytable.hpp"

namespace hc::crypto {

namespace {

const TaggedHash& keygen_hash() {
  static const TaggedHash h("hc/keygen");
  return h;
}

const TaggedHash& nonce_hash() {
  static const TaggedHash h("hc/nonce");
  return h;
}

/// e = H_tag("hc/chal", R, P, m) mod n.
U256 challenge(const U256& rx, const U256& ry, const PublicKey& pub,
               BytesView message) {
  static const TaggedHash chal("hc/chal");
  std::array<std::uint8_t, 64> r_bytes{};
  rx.write_be(r_bytes.data());
  ry.write_be(r_bytes.data() + 32);
  return fn::reduce(U256::from_digest(chal({r_bytes, pub.to_array(), message})));
}

}  // namespace

TaggedHash::TaggedHash(std::string_view tag) {
  const Digest tag_hash = Sha256::hash(to_bytes(tag));
  prefix_.update(digest_view(tag_hash));
  prefix_.update(digest_view(tag_hash));
}

Digest TaggedHash::operator()(std::initializer_list<BytesView> parts) const {
  Sha256 h = prefix_;
  for (const auto& p : parts) h.update(p);
  return h.finalize();
}

Bytes PublicKey::to_bytes() const {
  const auto a = to_array();
  return Bytes(a.begin(), a.end());
}

std::array<std::uint8_t, 64> PublicKey::to_array() const {
  std::array<std::uint8_t, 64> out{};
  x_.write_be(out.data());
  y_.write_be(out.data() + 32);
  return out;
}

Result<PublicKey> PublicKey::from_bytes(BytesView bytes) {
  if (bytes.size() != 64) {
    return Error(Errc::kDecodeError, "public key must be 64 bytes");
  }
  PublicKey pk(U256::from_be_bytes(bytes.subspan(0, 32)),
               U256::from_be_bytes(bytes.subspan(32, 32)));
  if (!pk.valid()) {
    return Error(Errc::kDecodeError,
                 "public key not canonical or not on curve");
  }
  return pk;
}

Result<PublicKey> PublicKey::decode_from(Decoder& d) {
  HC_TRY(raw, d.raw(64));
  return from_bytes(raw);
}

Bytes Signature::to_bytes() const {
  const auto a = to_array();
  return Bytes(a.begin(), a.end());
}

std::array<std::uint8_t, 96> Signature::to_array() const {
  std::array<std::uint8_t, 96> out{};
  rx_.write_be(out.data());
  ry_.write_be(out.data() + 32);
  s_.write_be(out.data() + 64);
  return out;
}

Result<Signature> Signature::from_bytes(BytesView bytes) {
  if (bytes.size() != 96) {
    return Error(Errc::kDecodeError, "signature must be 96 bytes");
  }
  return Signature(U256::from_be_bytes(bytes.subspan(0, 32)),
                   U256::from_be_bytes(bytes.subspan(32, 32)),
                   U256::from_be_bytes(bytes.subspan(64, 32)));
}

Result<Signature> Signature::decode_from(Decoder& d) {
  HC_TRY(raw, d.raw(96));
  return from_bytes(raw);
}

KeyPair KeyPair::from_seed(BytesView seed) {
  U256 d = fn::reduce(U256::from_digest(keygen_hash()({seed})));
  if (d.is_zero()) d = U256(1);  // negligible probability; keep total
  const Point p = Point::mul_generator(d);
  const auto affine = p.to_affine();
  assert(affine.has_value());
  return KeyPair(d, PublicKey(affine->x, affine->y));
}

KeyPair KeyPair::from_label(std::string_view label) {
  return from_seed(to_bytes(label));
}

Signature KeyPair::sign(BytesView message) const {
  std::array<std::uint8_t, 32> d_bytes{};
  secret_.write_be(d_bytes.data());
  U256 k = fn::reduce(U256::from_digest(nonce_hash()({d_bytes, message})));
  if (k.is_zero()) k = U256(1);
  const Point r_point = Point::mul_generator(k);
  const auto r = r_point.to_affine();
  assert(r.has_value());
  const U256 e = challenge(r->x, r->y, pub_, message);
  const U256 s = fn::add(k, fn::mul(e, secret_));
  return Signature(r->x, r->y, s);
}

bool verify(const PublicKey& pub, BytesView message, const Signature& sig) {
  // Both points canonical and on the curve, s < n.
  if (!pub.valid()) return false;
  if (!Point::is_on_curve(sig.rx(), sig.ry())) return false;
  if (sig.s() >= fn::N()) return false;
  const U256 minus_e =
      fn::sub(U256(), challenge(sig.rx(), sig.ry(), pub, message));
  // s*G - e*P == R: s*G from the generator comb, -e*P from the key's own
  // comb once it recurs (else one GLV/Strauss–Shamir multiplication),
  // compared with R in Jacobian form (no inversion).
  const std::shared_ptr<const KeyTable> table =
      KeyTableCache::instance().lookup(pub);
  const Point minus_ep =
      table ? table->mul(minus_e)
            : Point::from_affine(pub.x(), pub.y()).mul(minus_e);
  const Point lhs = Point::mul_generator(sig.s()).add(minus_ep);
  return lhs.equals(Point::from_affine(sig.rx(), sig.ry()));
}

}  // namespace hc::crypto

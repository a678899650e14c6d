// secp256k1 elliptic-curve arithmetic: y^2 = x^3 + 7 over F_p.
//
// Field multiplication and squaring fold the 512-bit product with
// 2^256 ≡ 2^32 + 977 (mod p) and finish with one conditional subtract;
// scalar multiplication mod the group order n folds the same way with
// 2^256 ≡ 2^256 - n (a 129-bit constant). Every field and scalar function
// takes and returns canonical values (< p, resp. < n). Points are tracked
// in Jacobian coordinates to avoid per-operation field inversions;
// variable-base multiplication uses the GLV endomorphism
// λ·(x, y) = (β·x, y) to halve the doubling chain.
#pragma once

#include <optional>
#include <vector>

#include "crypto/u256.hpp"

namespace hc::crypto {

/// Field arithmetic modulo the secp256k1 prime p. Inputs must be < p.
namespace fp {
/// The field prime p = 2^256 - 2^32 - 977.
[[nodiscard]] const U256& P();
[[nodiscard]] U256 add(const U256& a, const U256& b);
[[nodiscard]] U256 sub(const U256& a, const U256& b);
[[nodiscard]] U256 neg(const U256& a);
[[nodiscard]] U256 mul(const U256& a, const U256& b);
/// Dedicated square: 10 limb products instead of mul's 16.
[[nodiscard]] U256 sqr(const U256& a);
/// Multiplicative inverse a^(p-2) by a fixed addition chain of 255
/// squarings and 15 multiplications (a != 0).
[[nodiscard]] U256 inv(const U256& a);
/// Reduce an arbitrary 256-bit value into [0, p).
[[nodiscard]] U256 reduce(const U256& a);
/// β, the cube root of unity mod p behind the GLV endomorphism:
/// λ·(x, y) = (β·x, y).
[[nodiscard]] const U256& beta();
}  // namespace fp

/// Scalar arithmetic modulo the group order n. add/sub need inputs < n;
/// mul takes any 256-bit operands.
namespace fn {
/// The group order n.
[[nodiscard]] const U256& N();
[[nodiscard]] U256 add(const U256& a, const U256& b);
[[nodiscard]] U256 sub(const U256& a, const U256& b);
[[nodiscard]] U256 mul(const U256& a, const U256& b);
/// Reduce an arbitrary 256-bit value into [0, n).
[[nodiscard]] U256 reduce(const U256& a);

/// λ, a non-trivial cube root of unity mod n: λ·P = (β·x, y) for every
/// curve point P = (x, y), with β a cube root of unity mod p.
[[nodiscard]] const U256& lambda();

/// GLV decomposition of a scalar k < n into two signed halves,
/// k ≡ ±k1 ± k2·λ (mod n), each magnitude below 2^128.
struct LambdaSplit {
  U256 k1;
  U256 k2;
  bool k1_neg = false;
  bool k2_neg = false;
};
[[nodiscard]] LambdaSplit split_lambda(const U256& k);
}  // namespace fn

/// A curve point in Jacobian coordinates (X/Z^2, Y/Z^3); Z == 0 encodes the
/// point at infinity.
class Point {
 public:
  /// Point at infinity.
  Point() : x_(), y_(U256(1)), z_() {}

  /// From affine coordinates (assumed on-curve; see is_on_curve()).
  [[nodiscard]] static Point from_affine(const U256& x, const U256& y);

  /// The generator G.
  [[nodiscard]] static const Point& generator();

  [[nodiscard]] bool is_infinity() const { return z_.is_zero(); }

  [[nodiscard]] Point doubled() const;
  [[nodiscard]] Point add(const Point& other) const;
  /// Mixed addition with an affine point (implicit Z == 1): 8M + 3S versus
  /// the 12M + 4S of the general Jacobian add. The workhorse of the
  /// fixed-base table walk in mul_generator().
  [[nodiscard]] Point add_affine(const U256& x, const U256& y) const;
  /// Group negation (X, -Y, Z).
  [[nodiscard]] Point negated() const;
  /// Scalar multiplication k * this: the e*P term of verification for a
  /// key seen once (a recurring key uses its KeyTable, keytable.hpp). k is
  /// split by fn::split_lambda into two ~128-bit halves, k1*P + k2*λ(P),
  /// evaluated Strauss–Shamir style: one shared chain of ~128 doublings
  /// with width-5 wNAF digits of both halves added from the odd multiples
  /// 1P..15P and their images under λ (an add per ~6 bits of each half).
  [[nodiscard]] Point mul(const U256& k) const;

  /// k * G via a fixed-base comb: 32 byte-indexed windows of precomputed
  /// affine multiples (v * 2^(8j) * G), so a full-width scalar costs at
  /// most 32 mixed additions and no doublings. Signing and the s*G term
  /// of verification are the simulation's hottest code paths — consensus
  /// engines sign every vote and every user message verifies once.
  [[nodiscard]] static Point mul_generator(const U256& k);

  /// Affine coordinates; nullopt for infinity. Costs one field inversion.
  struct Affine {
    U256 x;
    U256 y;
  };
  [[nodiscard]] std::optional<Affine> to_affine() const;
  /// Affine coordinates of every point (none may be infinity) for ONE
  /// field inversion, by Montgomery's trick: how the fixed-base tables
  /// (mul_generator's and each KeyTable) are normalized.
  [[nodiscard]] static std::vector<Affine> batch_to_affine(
      const std::vector<Point>& points);

  /// True when both coordinates are canonical (< p) and satisfy the curve
  /// equation. Rejecting x or y >= p keeps every point to one encoding.
  [[nodiscard]] static bool is_on_curve(const U256& x, const U256& y);

  /// Equality as group elements (cross-multiplied, no inversion).
  [[nodiscard]] bool equals(const Point& other) const;

 private:
  Point(const U256& x, const U256& y, const U256& z) : x_(x), y_(y), z_(z) {}

  U256 x_;
  U256 y_;
  U256 z_;
};

}  // namespace hc::crypto

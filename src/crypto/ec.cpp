#include "crypto/ec.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace hc::crypto {

namespace {

// p = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE FFFFFC2F
constexpr U256 kP = U256::from_limbs_be(0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull,
                                        0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFEFFFFFC2Full);
// n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141
constexpr U256 kN = U256::from_limbs_be(0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFEull,
                                        0xBAAEDCE6AF48A03Bull, 0xBFD25E8CD0364141ull);
// (n - 1) / 2: scalars above it are the negatives of small ones.
constexpr U256 kHalfN = U256::from_limbs_be(0x7FFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull,
                                            0x5D576E7357A4501Dull, 0xDFE92F46681B20A0ull);
// 2^256 - p = 2^32 + 977, so 2^256 ≡ kPFold (mod p).
constexpr std::uint64_t kPFold = 0x1000003D1ull;
// 2^256 - n, a 129-bit value, so 2^256 ≡ kNFold (mod n).
constexpr U256 kNFold = U256::from_limbs_be(0, 1, 0x4551231950B75FC4ull,
                                            0x402DA1732FC9BEBFull);

constexpr U256 kGx = U256::from_limbs_be(0x79BE667EF9DCBBACull, 0x55A06295CE870B07ull,
                                         0x029BFCDB2DCE28D9ull, 0x59F2815B16F81798ull);
constexpr U256 kGy = U256::from_limbs_be(0x483ADA7726A3C465ull, 0x5DA4FBFC0E1108A8ull,
                                         0xFD17B448A6855419ull, 0x9C47D08FFB10D4B8ull);

// The endomorphism λ·(x, y) = (β·x, y): λ^3 ≡ 1 (mod n), β^3 ≡ 1 (mod p).
constexpr U256 kLambda = U256::from_limbs_be(0x5363AD4CC05C30E0ull, 0xA5261C028812645Aull,
                                             0x122E22EA20816678ull, 0xDF02967C1B23BD72ull);
constexpr U256 kBeta = U256::from_limbs_be(0x7AE96A2B657C0710ull, 0x6E64479EAC3434E9ull,
                                           0x9CF0497512F58995ull, 0xC1396C28719501EEull);
// Short basis {(a1, b1), (a2, b2)} of the lattice {(x, y) : x + y·λ ≡ 0}
// as -b1 and -b2 mod n, and the rounding constants
// g1 = round(2^384·b2 / n), g2 = round(2^384·(-b1) / n).
constexpr U256 kMinusB1 = U256::from_limbs_be(0, 0, 0xE4437ED6010E8828ull,
                                              0x6F547FA90ABFE4C3ull);
constexpr U256 kMinusB2 = U256::from_limbs_be(0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFEull,
                                              0x8A280AC50774346Dull, 0xD765CDA83DB1562Cull);
constexpr U256 kG1 = U256::from_limbs_be(0x3086D221A7D46BCDull, 0xE86C90E49284EB15ull,
                                         0x3DAA8A1471E8CA7Full, 0xE893209A45DBB031ull);
constexpr U256 kG2 = U256::from_limbs_be(0xE4437ED6010E8828ull, 0x6F547FA90ABFE4C4ull,
                                         0x221208AC9DF506C6ull, 0x1571B4AE8AC47F71ull);

/// All ones when `bit` is 1, zero when it is 0.
constexpr std::uint64_t mask_of(std::uint64_t bit) { return 0 - bit; }

/// Limb-wise select without a branch: `mask` all ones picks a, zero picks b.
inline U256 select(std::uint64_t mask, const U256& a, const U256& b) {
  return U256::from_limbs_be((a.limb(3) & mask) | (b.limb(3) & ~mask),
                             (a.limb(2) & mask) | (b.limb(2) & ~mask),
                             (a.limb(1) & mask) | (b.limb(1) & ~mask),
                             (a.limb(0) & mask) | (b.limb(0) & ~mask));
}

/// t + carry·2^256 reduced mod m, for a value below 2m, where
/// complement = 2^256 - m. Subtracting m is adding the complement mod
/// 2^256, and it is due exactly when that addition (or t itself) reaches
/// 2^256.
inline U256 reduce_once(const U256& t, std::uint64_t carry,
                        const U256& complement) {
  U256 u = t;
  const std::uint64_t wrapped = u.add_with_carry(complement);
  return select(mask_of(carry | wrapped), u, t);
}

/// a - b mod m for a, b < m: adds m back when the subtraction borrowed.
/// (The field has a cheaper straight-line fp::sub.)
inline U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  U256 d = a;
  const std::uint64_t borrow = d.sub_with_borrow(b);
  d.add_with_carry(select(mask_of(borrow), m, U256()));
  return d;
}

/// (hi·2^256 + lo) mod p. The first fold, lo + hi·kPFold, overflows 2^256
/// by c < 2^34. The second fold adds c·kPFold < 2^67 to the low two limbs;
/// it carries further only when limb 1 overflows. The closing subtract is
/// due only when the sum wrapped or landed in [p, 2^256), about 2^-189 of
/// products, so both rare cases sit behind a branch the predictor never
/// misses.
inline U256 fold_p(const WideProduct& w) {
  using u256_detail::add_carry;
  using u256_detail::mul_add;
  std::uint64_t c = 0;
  std::uint64_t t0 = mul_add(w.hi.limb(0), kPFold, w.lo.limb(0), c);
  std::uint64_t t1 = mul_add(w.hi.limb(1), kPFold, w.lo.limb(1), c);
  std::uint64_t t2 = mul_add(w.hi.limb(2), kPFold, w.lo.limb(2), c);
  std::uint64_t t3 = mul_add(w.hi.limb(3), kPFold, w.lo.limb(3), c);
  std::uint64_t f_hi = 0;
  const std::uint64_t f_lo = mul_add(c, kPFold, 0, f_hi);
  std::uint64_t k = 0;
  t0 = add_carry(t0, f_lo, k);
  t1 = add_carry(t1, f_hi, k);
  if (k != 0 || ((t3 & t2 & t1) == ~0ull && t0 >= kP.limb(0))) [[unlikely]] {
    t2 = add_carry(t2, 0, k);
    t3 = add_carry(t3, 0, k);
    return reduce_once(U256::from_limbs_be(t3, t2, t1, t0), k, U256(kPFold));
  }
  return U256::from_limbs_be(t3, t2, t1, t0);
}

/// round(k·g / 2^384) for the GLV rounding constants.
U256 mul_shift_384(const U256& k, const U256& g) {
  const WideProduct w = mul_wide(k, g);
  U256 r = U256::from_limbs_be(0, 0, w.hi.limb(3), w.hi.limb(2));
  r.add_with_carry(U256(w.hi.limb(1) >> 63));
  return r;
}

}  // namespace

namespace fp {

const U256& P() { return kP; }

U256 reduce(const U256& a) { return reduce_once(a, 0, U256(kPFold)); }

const U256& beta() { return kBeta; }

U256 add(const U256& a, const U256& b) {
  using u256_detail::add_carry;
  std::uint64_t c = 0;
  const std::uint64_t s0 = add_carry(a.limb(0), b.limb(0), c);
  const std::uint64_t s1 = add_carry(a.limb(1), b.limb(1), c);
  const std::uint64_t s2 = add_carry(a.limb(2), b.limb(2), c);
  const std::uint64_t s3 = add_carry(a.limb(3), b.limb(3), c);
  // a + b - p is s + kPFold mod 2^256. It is due when the sum carried or
  // when adding kPFold carries; since a + b < 2p, never both.
  std::uint64_t w = 0;
  const std::uint64_t u0 = add_carry(s0, kPFold, w);
  const std::uint64_t u1 = add_carry(s1, 0, w);
  const std::uint64_t u2 = add_carry(s2, 0, w);
  const std::uint64_t u3 = add_carry(s3, 0, w);
  return select(mask_of(c | w), U256::from_limbs_be(u3, u2, u1, u0),
                U256::from_limbs_be(s3, s2, s1, s0));
}

U256 sub(const U256& a, const U256& b) {
  using u256_detail::sub_borrow;
  std::uint64_t w = 0;
  const std::uint64_t d0 = sub_borrow(a.limb(0), b.limb(0), w);
  const std::uint64_t d1 = sub_borrow(a.limb(1), b.limb(1), w);
  const std::uint64_t d2 = sub_borrow(a.limb(2), b.limb(2), w);
  const std::uint64_t d3 = sub_borrow(a.limb(3), b.limb(3), w);
  // On a borrow, adding p back is subtracting kPFold mod 2^256.
  std::uint64_t v = 0;
  const std::uint64_t r0 = sub_borrow(d0, kPFold & mask_of(w), v);
  const std::uint64_t r1 = sub_borrow(d1, 0, v);
  const std::uint64_t r2 = sub_borrow(d2, 0, v);
  const std::uint64_t r3 = sub_borrow(d3, 0, v);
  return U256::from_limbs_be(r3, r2, r1, r0);
}

U256 neg(const U256& a) { return sub(U256(), a); }

U256 mul(const U256& a, const U256& b) { return fold_p(mul_wide(a, b)); }

U256 sqr(const U256& a) { return fold_p(sqr_wide(a)); }

namespace {

/// a^(2^n): n repeated squarings.
U256 sqr_n(U256 a, int n) {
  for (int i = 0; i < n; ++i) a = sqr(a);
  return a;
}

}  // namespace

U256 inv(const U256& a) {
  assert(!a.is_zero() && "field inverse of zero");
  // Fermat: a^(p-2). From the top, p - 2 is 223 one bits, a zero, 22 ones,
  // then 0000101101. xN below is a^(2^N - 1), a run of N one bits.
  const U256 x2 = mul(sqr(a), a);
  const U256 x3 = mul(sqr(x2), a);
  const U256 x6 = mul(sqr_n(x3, 3), x3);
  const U256 x9 = mul(sqr_n(x6, 3), x3);
  const U256 x11 = mul(sqr_n(x9, 2), x2);
  const U256 x22 = mul(sqr_n(x11, 11), x11);
  const U256 x44 = mul(sqr_n(x22, 22), x22);
  const U256 x88 = mul(sqr_n(x44, 44), x44);
  const U256 x176 = mul(sqr_n(x88, 88), x88);
  const U256 x220 = mul(sqr_n(x176, 44), x44);
  const U256 x223 = mul(sqr_n(x220, 3), x3);
  U256 r = mul(sqr_n(x223, 23), x22);  // ... 0 + 22 ones
  r = mul(sqr_n(r, 5), a);             // 00001
  r = mul(sqr_n(r, 3), x2);            // 011
  return mul(sqr_n(r, 2), a);          // 01
}

}  // namespace fp

namespace fn {

const U256& N() { return kN; }

const U256& lambda() { return kLambda; }

U256 reduce(const U256& a) { return reduce_once(a, 0, kNFold); }

U256 add(const U256& a, const U256& b) {
  U256 r = a;
  const std::uint64_t carry = r.add_with_carry(b);
  return reduce_once(r, carry, kNFold);
}

U256 sub(const U256& a, const U256& b) { return sub_mod(a, b, kN); }

U256 mul(const U256& a, const U256& b) {
  WideProduct w = mul_wide(a, b);
  // Fold the high half down with 2^256 ≡ kNFold (129 bits): it shrinks
  // from 256 bits to at most 130, then to at most 4, then to zero — or to
  // 1 when the low-half addition wraps, which one more pass clears.
  while (!w.hi.is_zero()) {
    const WideProduct f = mul_wide(w.hi, kNFold);
    const std::uint64_t carry = w.lo.add_with_carry(f.lo);
    w.hi = f.hi;
    w.hi.add_with_carry(U256(carry));
  }
  return reduce(w.lo);
}

LambdaSplit split_lambda(const U256& k) {
  // Babai rounding: c1 = round(b2·k / n), c2 = round(-b1·k / n), then
  // k2 = -(c1·b1 + c2·b2) and k1 = k - k2·λ. Both land within 2^128 of
  // zero; a negative half is represented as n - |half|.
  const U256 c1 = mul_shift_384(k, kG1);
  const U256 c2 = mul_shift_384(k, kG2);
  const U256 k2 = add(mul(c1, kMinusB1), mul(c2, kMinusB2));
  const U256 k1 = sub(k, mul(k2, kLambda));
  LambdaSplit split;
  split.k1_neg = k1 > kHalfN;
  split.k1 = split.k1_neg ? sub(U256(), k1) : k1;
  split.k2_neg = k2 > kHalfN;
  split.k2 = split.k2_neg ? sub(U256(), k2) : k2;
  return split;
}

}  // namespace fn

Point Point::from_affine(const U256& x, const U256& y) {
  return Point(x, y, U256(1));
}

const Point& Point::generator() {
  static const Point g = Point::from_affine(kGx, kGy);
  return g;
}

// The point formulas are flattened: every field operation inlines into
// them, so the limb arithmetic of a whole formula is scheduled together
// instead of passing each U256 through memory on a call.
[[gnu::flatten]] Point Point::doubled() const {
  if (is_infinity() || y_.is_zero()) return Point();
  // dbl-2007-bl formulas for a = 0.
  const U256 a = fp::sqr(x_);                       // X^2
  const U256 b = fp::sqr(y_);                       // Y^2
  const U256 c = fp::sqr(b);                        // B^2
  U256 d = fp::sub(fp::sqr(fp::add(x_, b)), fp::add(a, c));
  d = fp::add(d, d);                                // 2*((X+B)^2 - A - C)
  const U256 e = fp::add(fp::add(a, a), a);         // 3*A
  const U256 f = fp::sqr(e);
  const U256 x3 = fp::sub(f, fp::add(d, d));
  U256 c8 = fp::add(c, c);
  c8 = fp::add(c8, c8);
  c8 = fp::add(c8, c8);
  const U256 y3 = fp::sub(fp::mul(e, fp::sub(d, x3)), c8);
  const U256 z3 = fp::mul(fp::add(y_, y_), z_);
  return Point(x3, y3, z3);
}

[[gnu::flatten]] Point Point::add(const Point& other) const {
  if (is_infinity()) return other;
  if (other.is_infinity()) return *this;
  const U256 z1z1 = fp::sqr(z_);
  const U256 z2z2 = fp::sqr(other.z_);
  const U256 u1 = fp::mul(x_, z2z2);
  const U256 u2 = fp::mul(other.x_, z1z1);
  const U256 s1 = fp::mul(y_, fp::mul(z2z2, other.z_));
  const U256 s2 = fp::mul(other.y_, fp::mul(z1z1, z_));
  const U256 h = fp::sub(u2, u1);
  const U256 r = fp::sub(s2, s1);
  if (h.is_zero()) {
    if (r.is_zero()) return doubled();
    return Point();  // P + (-P) = infinity
  }
  const U256 h2 = fp::sqr(h);
  const U256 h3 = fp::mul(h2, h);
  const U256 u1h2 = fp::mul(u1, h2);
  U256 x3 = fp::sub(fp::sqr(r), h3);
  x3 = fp::sub(x3, fp::add(u1h2, u1h2));
  const U256 y3 = fp::sub(fp::mul(r, fp::sub(u1h2, x3)), fp::mul(s1, h3));
  const U256 z3 = fp::mul(h, fp::mul(z_, other.z_));
  return Point(x3, y3, z3);
}

[[gnu::flatten]] Point Point::add_affine(const U256& x, const U256& y) const {
  if (is_infinity()) return Point(x, y, U256(1));
  // madd-2007-bl specialization of add() for Z2 == 1.
  const U256 z1z1 = fp::sqr(z_);
  const U256 u2 = fp::mul(x, z1z1);
  const U256 s2 = fp::mul(y, fp::mul(z1z1, z_));
  const U256 h = fp::sub(u2, x_);
  const U256 r = fp::sub(s2, y_);
  if (h.is_zero()) {
    if (r.is_zero()) return doubled();
    return Point();  // P + (-P) = infinity
  }
  const U256 h2 = fp::sqr(h);
  const U256 h3 = fp::mul(h2, h);
  const U256 u1h2 = fp::mul(x_, h2);
  U256 x3 = fp::sub(fp::sqr(r), h3);
  x3 = fp::sub(x3, fp::add(u1h2, u1h2));
  const U256 y3 = fp::sub(fp::mul(r, fp::sub(u1h2, x3)), fp::mul(y_, h3));
  const U256 z3 = fp::mul(h, z_);
  return Point(x3, y3, z3);
}

Point Point::negated() const { return Point(x_, fp::neg(y_), z_); }

std::vector<Point::Affine> Point::batch_to_affine(
    const std::vector<Point>& points) {
  // prefix[i] = Z_0 * ... * Z_i, one inversion of the full product, then
  // walk back peeling one Z off per point.
  std::vector<U256> prefix(points.size());
  U256 running(1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    assert(!points[i].is_infinity());
    running = fp::mul(running, points[i].z_);
    prefix[i] = running;
  }
  U256 inv_all = fp::inv(running);
  std::vector<Affine> out(points.size());
  for (std::size_t i = points.size(); i-- > 0;) {
    const U256 zinv = i == 0 ? inv_all : fp::mul(inv_all, prefix[i - 1]);
    inv_all = fp::mul(inv_all, points[i].z_);
    const U256 zinv2 = fp::sqr(zinv);
    out[i].x = fp::mul(points[i].x_, zinv2);
    out[i].y = fp::mul(points[i].y_, fp::mul(zinv2, zinv));
  }
  return out;
}

namespace {

/// The mul_generator comb: 32 byte windows * 255 multiples (entry
/// [j][v-1] = v * 2^(8j) * G), normalized with one shared inversion so
/// process start-up stays in the low milliseconds.
constexpr std::size_t kGenWindows = 32;
constexpr std::size_t kGenPerWindow = 255;

std::vector<Point::Affine> build_gen_table() {
  std::vector<Point> jac;
  jac.reserve(kGenWindows * kGenPerWindow);
  Point base = Point::generator();  // 2^(8j) * G for the current window
  for (std::size_t j = 0; j < kGenWindows; ++j) {
    Point acc = base;
    for (std::size_t v = 1; v <= kGenPerWindow; ++v) {
      jac.push_back(acc);
      acc = acc.add(base);
    }
    base = acc;  // 256 * (2^(8j) * G) = 2^(8(j+1)) * G
  }
  return Point::batch_to_affine(jac);
}

const std::vector<Point::Affine>& gen_table() {
  static const std::vector<Point::Affine> t = build_gen_table();
  return t;
}

/// Bits [i, i + 5) of k, zero past bit 255.
unsigned window5(const U256& k, int i) {
  if (i >= 256) return 0;
  const int limb = i / 64;
  const int shift = i % 64;
  std::uint64_t w = k.limb(limb) >> shift;
  if (shift > 59 && limb < 3) w |= k.limb(limb + 1) << (64 - shift);
  return static_cast<unsigned>(w & 31u);
}

/// Width-5 wNAF of k: digits[i] is the signed odd digit (in -15..15) at
/// bit i, or zero. Returns one past the highest nonzero digit. A zero bit
/// (or a one bit absorbing a pending carry) costs one step; a digit
/// consumes five bits and, when negative, carries one into the next.
int wnaf_digits(const U256& k, std::array<std::int8_t, 257>& digits) {
  int carry = 0;
  int count = 0;
  for (int bit = 0; bit < 257;) {
    if (static_cast<int>(bit < 256 && k.bit(bit)) == carry) {
      ++bit;
      continue;
    }
    int word = static_cast<int>(window5(k, bit)) + carry;  // odd, 1..31
    carry = word >> 4;
    word -= carry << 5;
    digits[static_cast<std::size_t>(bit)] = static_cast<std::int8_t>(word);
    count = bit + 1;
    bit += 5;
  }
  return count;
}

/// acc + d·T for a signed odd wNAF digit d, given T's odd multiples
/// 1T, 3T, ..., 15T.
Point add_digit(const Point& acc, const std::array<Point, 8>& odd, int d) {
  if (d > 0) return acc.add(odd[static_cast<std::size_t>((d - 1) / 2)]);
  if (d < 0) return acc.add(odd[static_cast<std::size_t>((-d - 1) / 2)].negated());
  return acc;
}

}  // namespace

Point Point::mul(const U256& k) const {
  if (is_infinity()) return Point();
  const fn::LambdaSplit split = fn::split_lambda(fn::reduce(k));
  // Odd multiples 1P, 3P, ..., 15P, and their images λ·(iP) = (β·X, Y, Z).
  std::array<Point, 8> odd;
  odd[0] = *this;
  const Point twice = doubled();
  for (std::size_t i = 1; i < odd.size(); ++i) {
    odd[i] = odd[i - 1].add(twice);
  }
  std::array<Point, 8> odd_lambda;
  for (std::size_t i = 0; i < odd.size(); ++i) {
    odd_lambda[i] = Point(fp::mul(odd[i].x_, kBeta), odd[i].y_, odd[i].z_);
  }
  std::array<std::int8_t, 257> d1{};
  std::array<std::int8_t, 257> d2{};
  const int count = std::max(wnaf_digits(split.k1, d1), wnaf_digits(split.k2, d2));
  const int sign1 = split.k1_neg ? -1 : 1;
  const int sign2 = split.k2_neg ? -1 : 1;
  Point acc;  // infinity
  for (int i = count - 1; i >= 0; --i) {
    acc = acc.doubled();
    acc = add_digit(acc, odd, sign1 * d1[static_cast<std::size_t>(i)]);
    acc = add_digit(acc, odd_lambda, sign2 * d2[static_cast<std::size_t>(i)]);
  }
  return acc;
}

Point Point::mul_generator(const U256& k) {
  const std::vector<Affine>& table = gen_table();
  Point acc;  // infinity
  for (std::size_t j = 0; j < kGenWindows; ++j) {
    const std::uint64_t v = (k.limb(static_cast<int>(j / 8)) >>
                             ((j % 8) * 8)) & 0xFFu;
    if (v != 0) {
      const Affine& e = table[j * kGenPerWindow + (v - 1)];
      acc = acc.add_affine(e.x, e.y);
    }
  }
  return acc;
}

std::optional<Point::Affine> Point::to_affine() const {
  if (is_infinity()) return std::nullopt;
  const U256 zinv = fp::inv(z_);
  const U256 zinv2 = fp::sqr(zinv);
  return Affine{fp::mul(x_, zinv2), fp::mul(y_, fp::mul(zinv2, zinv))};
}

bool Point::is_on_curve(const U256& x, const U256& y) {
  if (x >= kP || y >= kP) return false;
  const U256 lhs = fp::sqr(y);
  const U256 rhs = fp::add(fp::mul(fp::sqr(x), x), U256(7));
  return lhs == rhs;
}

bool Point::equals(const Point& other) const {
  if (is_infinity() || other.is_infinity()) {
    return is_infinity() == other.is_infinity();
  }
  // X1/Z1^2 == X2/Z2^2  <=>  X1*Z2^2 == X2*Z1^2 (and same for Y with cubes).
  const U256 z1z1 = fp::sqr(z_);
  const U256 z2z2 = fp::sqr(other.z_);
  if (fp::mul(x_, z2z2) != fp::mul(other.x_, z1z1)) return false;
  return fp::mul(y_, fp::mul(z2z2, other.z_)) ==
         fp::mul(other.y_, fp::mul(z1z1, z_));
}

}  // namespace hc::crypto

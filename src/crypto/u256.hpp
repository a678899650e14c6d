// 256-bit unsigned integer arithmetic.
//
// Fixed-width little-endian limb representation (limbs_[0] is least
// significant). This is the substrate for the secp256k1 field/scalar
// arithmetic in ec.hpp; only the operations those need are provided. The
// 512-bit product and square are defined here, inline, so the field
// reduction in ec.cpp folds their limbs straight out of registers.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace hc::crypto {

class U256;
struct WideProduct;
[[nodiscard]] inline WideProduct mul_wide(const U256& a, const U256& b);
[[nodiscard]] inline WideProduct sqr_wide(const U256& a);

class U256 {
 public:
  /// Zero.
  constexpr U256() : limbs_{} {}

  /// From a single 64-bit value.
  constexpr explicit U256(std::uint64_t v) : limbs_{v, 0, 0, 0} {}

  /// From four 64-bit limbs, most-significant first (matches how constants
  /// are written in standards documents).
  [[nodiscard]] static constexpr U256 from_limbs_be(std::uint64_t a,
                                                    std::uint64_t b,
                                                    std::uint64_t c,
                                                    std::uint64_t d) {
    U256 r;
    r.limbs_ = {d, c, b, a};
    return r;
  }

  /// From exactly 32 big-endian bytes.
  [[nodiscard]] static U256 from_be_bytes(BytesView bytes);

  /// From a 32-byte digest (big-endian interpretation).
  [[nodiscard]] static U256 from_digest(const std::array<std::uint8_t, 32>& d);

  /// To 32 big-endian bytes.
  [[nodiscard]] Bytes to_be_bytes() const;
  /// Write 32 big-endian bytes to `out` (no allocation).
  void write_be(std::uint8_t* out) const;

  /// Hex rendering (64 chars, no prefix).
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] constexpr bool is_zero() const {
    return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }

  [[nodiscard]] constexpr std::uint64_t limb(int i) const {
    return limbs_[static_cast<std::size_t>(i)];
  }

  /// Bit i (0 = least significant).
  [[nodiscard]] constexpr bool bit(int i) const {
    return (limbs_[static_cast<std::size_t>(i / 64)] >>
            (static_cast<unsigned>(i) % 64)) & 1u;
  }

  /// Index of the highest set bit, or -1 if zero.
  [[nodiscard]] int top_bit() const;

  /// this + rhs; returns the carry out (0/1).
  std::uint64_t add_with_carry(const U256& rhs);
  /// this - rhs; returns the borrow out (0/1).
  std::uint64_t sub_with_borrow(const U256& rhs);

  [[nodiscard]] friend U256 operator+(U256 a, const U256& b) {
    a.add_with_carry(b);
    return a;
  }
  [[nodiscard]] friend U256 operator-(U256 a, const U256& b) {
    a.sub_with_borrow(b);
    return a;
  }

  friend constexpr auto operator<=>(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
      if (a.limbs_[static_cast<std::size_t>(i)] !=
          b.limbs_[static_cast<std::size_t>(i)]) {
        return a.limbs_[static_cast<std::size_t>(i)] <=>
               b.limbs_[static_cast<std::size_t>(i)];
      }
    }
    return std::strong_ordering::equal;
  }
  friend constexpr bool operator==(const U256&, const U256&) = default;

 private:
  friend WideProduct mul_wide(const U256& a, const U256& b);
  friend WideProduct sqr_wide(const U256& a);

  std::array<std::uint64_t, 4> limbs_;
};

/// Full 512-bit product as {lo, hi} (see mul_wide).
struct WideProduct {
  U256 lo;
  U256 hi;
};

namespace u256_detail {

/// a·b + c + carry, returning the low limb and leaving the high limb in
/// `carry`. At most (2^64-1)^2 + 2(2^64-1) = 2^128 - 1: never overflows.
inline std::uint64_t mul_add(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                             std::uint64_t& carry) {
  const unsigned __int128 t = static_cast<unsigned __int128>(a) * b + c + carry;
  carry = static_cast<std::uint64_t>(t >> 64);
  return static_cast<std::uint64_t>(t);
}

/// a + b + carry, returning the low limb and leaving the carry (0/1).
inline std::uint64_t add_carry(std::uint64_t a, std::uint64_t b,
                               std::uint64_t& carry) {
  const unsigned __int128 t = static_cast<unsigned __int128>(a) + b + carry;
  carry = static_cast<std::uint64_t>(t >> 64);
  return static_cast<std::uint64_t>(t);
}

/// a - b - borrow, returning the low limb and leaving the borrow (0/1).
inline std::uint64_t sub_borrow(std::uint64_t a, std::uint64_t b,
                                std::uint64_t& borrow) {
  // Unsigned 128-bit wraparound: bit 64 and up are all ones on a borrow.
  const unsigned __int128 t = static_cast<unsigned __int128>(a) - b - borrow;
  borrow = static_cast<std::uint64_t>(t >> 64) & 1u;
  return static_cast<std::uint64_t>(t);
}

}  // namespace u256_detail

/// Schoolbook 4x4-limb product, one row per limb of a. Written out limb
/// by limb so the whole product stays in registers.
inline WideProduct mul_wide(const U256& a, const U256& b) {
  using u256_detail::mul_add;
  const auto& x = a.limbs_;
  const auto& y = b.limbs_;
  std::uint64_t r[8];
  std::uint64_t c = 0;
  r[0] = mul_add(x[0], y[0], 0, c);
  r[1] = mul_add(x[0], y[1], 0, c);
  r[2] = mul_add(x[0], y[2], 0, c);
  r[3] = mul_add(x[0], y[3], 0, c);
  r[4] = c;
  c = 0;
  r[1] = mul_add(x[1], y[0], r[1], c);
  r[2] = mul_add(x[1], y[1], r[2], c);
  r[3] = mul_add(x[1], y[2], r[3], c);
  r[4] = mul_add(x[1], y[3], r[4], c);
  r[5] = c;
  c = 0;
  r[2] = mul_add(x[2], y[0], r[2], c);
  r[3] = mul_add(x[2], y[1], r[3], c);
  r[4] = mul_add(x[2], y[2], r[4], c);
  r[5] = mul_add(x[2], y[3], r[5], c);
  r[6] = c;
  c = 0;
  r[3] = mul_add(x[3], y[0], r[3], c);
  r[4] = mul_add(x[3], y[1], r[4], c);
  r[5] = mul_add(x[3], y[2], r[5], c);
  r[6] = mul_add(x[3], y[3], r[6], c);
  r[7] = c;
  WideProduct w;
  w.lo.limbs_ = {r[0], r[1], r[2], r[3]};
  w.hi.limbs_ = {r[4], r[5], r[6], r[7]};
  return w;
}

/// a^2 in 10 limb products instead of 16: the six cross products a_i·a_j
/// (i < j) once, doubled by a one-bit shift, plus the four squares a_i^2
/// on limbs 2i and 2i+1.
inline WideProduct sqr_wide(const U256& a) {
  using u256_detail::add_carry;
  using u256_detail::mul_add;
  const auto& x = a.limbs_;
  std::uint64_t r[8];
  std::uint64_t c = 0;
  r[1] = mul_add(x[0], x[1], 0, c);
  r[2] = mul_add(x[0], x[2], 0, c);
  r[3] = mul_add(x[0], x[3], 0, c);
  r[4] = c;
  c = 0;
  r[3] = mul_add(x[1], x[2], r[3], c);
  r[4] = mul_add(x[1], x[3], r[4], c);
  r[5] = c;
  c = 0;
  r[5] = mul_add(x[2], x[3], r[5], c);
  r[6] = c;
  r[7] = r[6] >> 63;
  r[6] = (r[6] << 1) | (r[5] >> 63);
  r[5] = (r[5] << 1) | (r[4] >> 63);
  r[4] = (r[4] << 1) | (r[3] >> 63);
  r[3] = (r[3] << 1) | (r[2] >> 63);
  r[2] = (r[2] << 1) | (r[1] >> 63);
  r[1] <<= 1;
  std::uint64_t hi = 0;
  r[0] = mul_add(x[0], x[0], 0, hi);
  c = 0;
  r[1] = add_carry(r[1], hi, c);
  hi = c;
  r[2] = mul_add(x[1], x[1], r[2], hi);
  c = 0;
  r[3] = add_carry(r[3], hi, c);
  hi = c;
  r[4] = mul_add(x[2], x[2], r[4], hi);
  c = 0;
  r[5] = add_carry(r[5], hi, c);
  hi = c;
  r[6] = mul_add(x[3], x[3], r[6], hi);
  r[7] += hi;
  WideProduct w;
  w.lo.limbs_ = {r[0], r[1], r[2], r[3]};
  w.hi.limbs_ = {r[4], r[5], r[6], r[7]};
  return w;
}

}  // namespace hc::crypto

#include "crypto/u256.hpp"

#include <bit>
#include <cassert>

namespace hc::crypto {

U256 U256::from_be_bytes(BytesView bytes) {
  assert(bytes.size() == 32 && "from_be_bytes requires exactly 32 bytes");
  U256 r;
  for (int limb = 0; limb < 4; ++limb) {
    std::uint64_t v = 0;
    for (int byte = 0; byte < 8; ++byte) {
      v = (v << 8) | bytes[static_cast<std::size_t>((3 - limb) * 8 + byte)];
    }
    r.limbs_[static_cast<std::size_t>(limb)] = v;
  }
  return r;
}

U256 U256::from_digest(const std::array<std::uint8_t, 32>& d) {
  return from_be_bytes(BytesView(d.data(), d.size()));
}

Bytes U256::to_be_bytes() const {
  Bytes out(32);
  write_be(out.data());
  return out;
}

void U256::write_be(std::uint8_t* out) const {
  for (int limb = 0; limb < 4; ++limb) {
    const std::uint64_t v = limbs_[static_cast<std::size_t>(limb)];
    for (int byte = 0; byte < 8; ++byte) {
      out[(3 - limb) * 8 + byte] = static_cast<std::uint8_t>(v >> (56 - 8 * byte));
    }
  }
}

std::string U256::to_hex() const { return hc::to_hex(to_be_bytes()); }

int U256::top_bit() const {
  for (int i = 3; i >= 0; --i) {
    if (limbs_[static_cast<std::size_t>(i)] != 0) {
      return i * 64 + 63 - std::countl_zero(limbs_[static_cast<std::size_t>(i)]);
    }
  }
  return -1;
}

std::uint64_t U256::add_with_carry(const U256& rhs) {
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    carry += static_cast<unsigned __int128>(limbs_[i]) + rhs.limbs_[i];
    limbs_[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return static_cast<std::uint64_t>(carry);
}

std::uint64_t U256::sub_with_borrow(const U256& rhs) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const unsigned __int128 lhs = limbs_[i];
    const unsigned __int128 sub =
        static_cast<unsigned __int128>(rhs.limbs_[i]) + borrow;
    limbs_[i] = static_cast<std::uint64_t>(lhs - sub);
    borrow = lhs < sub ? 1 : 0;
  }
  return borrow;
}

}  // namespace hc::crypto

// Per-signer fixed-base combs for the e*P term of verification.
//
// A subnet's validators sign every block, vote and checkpoint share, and
// its senders sign every transaction, so the keys behind the signature
// cache's misses recur even though the (message, key, signature) triples
// never do. For a key that recurs, verify() computes e*P the way
// mul_generator() computes s*G: from a table of precomputed affine
// multiples of P, with 22 doublings instead of the ~128 of Point::mul.
//
// KeyTableCache holds the tables process-wide, keyed by the 64-byte key. A
// key's table is built on its second sighting, so a key seen once stays on
// the Point::mul path and never pays the build. The first-sight set and the
// table set are each bounded, with SigCache-style generational eviction.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "crypto/ec.hpp"
#include "crypto/schnorr.hpp"

namespace hc::crypto {

/// A comb of 6 teeth x 22 rows for one point P, applied to both GLV halves
/// of a scalar: entry v-1 is sum over the set bits t of v of 2^(22t)·P,
/// 63 affine points (~4 KB). k·P then costs 22 doublings and at most 44
/// mixed additions; λ·P's entries are (β·x, y), one field multiply each.
class KeyTable {
 public:
  static constexpr int kTeeth = 6;
  /// kTeeth * kRows = 132 bits covers each GLV half (below 2^129).
  static constexpr int kRows = 22;

  /// Precomputes the comb of `p`, which must not be infinity.
  explicit KeyTable(const Point& p);

  /// k·P for any 256-bit k; equal to Point::mul(k) as a group element.
  [[nodiscard]] Point mul(const U256& k) const;

 private:
  std::array<Point::Affine, (1u << kTeeth) - 1> entries_;
};

class KeyTableCache {
 public:
  /// Process-wide instance.
  [[nodiscard]] static KeyTableCache& instance();

  /// Record one sighting of `pub` (a verification about to compute e·P)
  /// and return its table, or null while the key has been seen only once.
  /// The second sighting builds the table, outside the lock.
  [[nodiscard]] std::shared_ptr<const KeyTable> lookup(const PublicKey& pub);

 private:
  KeyTableCache();

  /// Bound on each of the table set and the first-sight set; each rotates
  /// its generations when the hot one reaches half of it.
  static constexpr std::size_t kCapacity = 1024;
  static constexpr std::size_t kHotMax = kCapacity / 2;

  using Key = std::array<std::uint8_t, 64>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::string_view>{}(std::string_view(
          reinterpret_cast<const char*>(k.data()), k.size()));
    }
  };
  using Tables =
      std::unordered_map<Key, std::shared_ptr<const KeyTable>, KeyHash>;
  using Seen = std::unordered_set<Key, KeyHash>;

  std::mutex m_;
  Tables tables_hot_;
  Tables tables_cold_;
  Seen seen_hot_;
  Seen seen_cold_;
};

}  // namespace hc::crypto

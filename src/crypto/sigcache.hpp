// Signature verification cache.
//
// The same (message, key, signature) triple is verified many times across a
// system: every validator checks every gossiped message, and blocks are
// re-executed at proposal, validation and commit. Like Bitcoin's and
// go-ethereum's sigcache, we memoize verification outcomes keyed by a hash
// of the triple.
//
// The cache is process-wide and hit from every ParallelExecutor worker
// lane, so it is sharded 16 ways (shard = low key bits — the key is itself
// a hash, so shards balance) with one mutex per shard. Eviction is
// generational per shard: entries insert into a *hot* map; when hot fills,
// it becomes the *cold* generation and the previous cold is dropped.
// Lookups that land in cold promote back to hot. At capacity this keeps
// the most recently touched half of the entries instead of dropping
// everything at once.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/bytes.hpp"

namespace hc::crypto {

class SigCache {
 public:
  /// Process-wide instance.
  [[nodiscard]] static SigCache& instance();

  /// Compute the cache key for a (payload, pubkey, signature) triple.
  [[nodiscard]] static std::uint64_t key(BytesView payload, BytesView pubkey,
                                         BytesView signature);

  /// Lookup; returns true and sets `result` when present. A cold-
  /// generation hit promotes the entry back into the hot generation.
  [[nodiscard]] bool lookup(std::uint64_t key, bool& result) const;

  /// Record an outcome.
  void store(std::uint64_t key, bool result);

  /// Lookup outcomes so far: the process-wide registry's
  /// crypto_sigcache_{hits,misses}_total.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

  static constexpr std::size_t kMaxEntries = 1u << 20;
  static constexpr std::size_t kShardCount = 16;
  // Rotate a shard's generations when its hot map reaches half the
  // shard's share of the capacity, so hot + cold stay within budget.
  static constexpr std::size_t kShardHotMax = kMaxEntries / kShardCount / 2;

 private:
  SigCache();

  struct Shard {
    mutable std::mutex m;
    std::unordered_map<std::uint64_t, bool> hot;
    std::unordered_map<std::uint64_t, bool> cold;
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t key) const {
    return shards_[key & (kShardCount - 1)];
  }

  mutable Shard shards_[kShardCount];
};

/// Cached variant of crypto::verify for hot paths.
class PublicKey;
class Signature;
[[nodiscard]] bool verify_cached(const PublicKey& pub, BytesView message,
                                 const Signature& sig);

}  // namespace hc::crypto

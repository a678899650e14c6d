#include "crypto/sigcache.hpp"

#include "common/hash.hpp"
#include "crypto/schnorr.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace hc::crypto {

namespace {

// Hit/miss rates live in the process-wide obs registry (the cache itself
// is process-wide, unlike per-hierarchy instruments), so they never enter
// per-run metric exports or replay fingerprints.
obs::Counter& hits_counter() {
  static obs::Counter& c =
      obs::default_obs().metrics.counter("crypto_sigcache_hits_total");
  return c;
}

obs::Counter& misses_counter() {
  static obs::Counter& c =
      obs::default_obs().metrics.counter("crypto_sigcache_misses_total");
  return c;
}

}  // namespace

SigCache::SigCache() {
  hits_counter();
  misses_counter();
}

std::uint64_t SigCache::hits() const { return hits_counter().value(); }

std::uint64_t SigCache::misses() const { return misses_counter().value(); }

SigCache& SigCache::instance() {
  static SigCache cache;
  return cache;
}

std::uint64_t SigCache::key(BytesView payload, BytesView pubkey,
                            BytesView signature) {
  const Digest d = Sha256::hash_all({payload, pubkey, signature});
  std::uint64_t k = 0;
  for (int i = 0; i < 8; ++i) k = (k << 8) | d[static_cast<std::size_t>(i)];
  return k;
}

bool SigCache::lookup(std::uint64_t key, bool& result) const {
  Shard& shard = shard_of(key);
  {
    std::lock_guard<std::mutex> lk(shard.m);
    if (auto it = shard.hot.find(key); it != shard.hot.end()) {
      result = it->second;
      hits_counter().inc();
      return true;
    }
    if (auto it = shard.cold.find(key); it != shard.cold.end()) {
      result = it->second;
      shard.hot.emplace(key, result);  // promote: recently touched
      hits_counter().inc();
      return true;
    }
  }
  misses_counter().inc();
  return false;
}

void SigCache::store(std::uint64_t key, bool result) {
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lk(shard.m);
  shard.hot.emplace(key, result);
  if (shard.hot.size() >= kShardHotMax) {
    // Generation rotation: the hot map ages into cold, the old cold is
    // dropped. Recently verified triples survive a capacity turnover.
    shard.cold = std::move(shard.hot);
    shard.hot.clear();
  }
}

bool verify_cached(const PublicKey& pub, BytesView message,
                   const Signature& sig) {
  const std::uint64_t key =
      SigCache::key(message, pub.to_array(), sig.to_array());
  bool result = false;
  if (SigCache::instance().lookup(key, result)) return result;
  {
    // Only the miss path pays real Schnorr math; cache hits above stay
    // unprofiled so the crypto/verify phase measures verification cost,
    // not hash-map lookups.
    static const obs::PhaseId verify_phase =
        obs::Profiler::instance().phase("crypto/verify");
    obs::ProfileScope prof(verify_phase);
    result = verify(pub, message, sig);
  }
  SigCache::instance().store(key, result);
  return result;
}

}  // namespace hc::crypto

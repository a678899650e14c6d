#include "crypto/batchverify.hpp"

#include "crypto/sigcache.hpp"
#include "obs/profile.hpp"

namespace hc::crypto {

void BatchVerifier::add(const PublicKey& pub, BytesView message,
                        const Signature& sig) {
  entries_.push_back(Entry{pub, message, sig,
                           SigCache::key(message, pub.to_array(),
                                         sig.to_array())});
}

std::vector<bool> BatchVerifier::flush() {
  const std::size_t n = entries_.size();
  std::vector<bool> results(n, false);
  if (n == 0) return results;

  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = entries_[i].key;

  // Pass 1: resolve cached outcomes, one lock per touched shard.
  std::vector<std::uint8_t> present(n, 0);
  std::vector<std::uint8_t> outcome(n, 0);
  SigCache::instance().lookup_batch(keys.data(), n, present.data(),
                                    outcome.data());

  // Pass 2: real Schnorr math for the misses only, one profiled region for
  // the whole cluster (the same accounting rule as verify_cached: hits are
  // hash-map time, not verification time).
  bool any_miss = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!present[i]) {
      any_miss = true;
      break;
    }
  }
  if (any_miss) {
    static const obs::PhaseId verify_phase =
        obs::Profiler::instance().phase("crypto/verify");
    obs::ProfileScope prof(verify_phase);
    for (std::size_t i = 0; i < n; ++i) {
      if (present[i]) continue;
      outcome[i] =
          verify(entries_[i].pub, entries_[i].message, entries_[i].sig) ? 1
                                                                        : 0;
    }
  }

  // Pass 3: publish the fresh outcomes, again one lock per shard. `present`
  // doubles as the skip mask: hits need no store.
  if (any_miss) {
    SigCache::instance().store_batch(keys.data(), outcome.data(),
                                     present.data(), n);
  }

  for (std::size_t i = 0; i < n; ++i) results[i] = outcome[i] != 0;
  entries_.clear();
  return results;
}

}  // namespace hc::crypto

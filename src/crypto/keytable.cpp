#include "crypto/keytable.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace hc::crypto {

namespace {

// Like the SigCache counters: the cache is process-wide, so its counters
// live in the process-wide registry and never enter per-run exports or
// replay fingerprints.
obs::Counter& builds_counter() {
  static obs::Counter& c =
      obs::default_obs().metrics.counter("crypto_key_table_builds_total");
  return c;
}

obs::Counter& hits_counter() {
  static obs::Counter& c =
      obs::default_obs().metrics.counter("crypto_key_table_hits_total");
  return c;
}

/// The comb column of row r: bit t is bit (kRows·t + r) of k.
unsigned comb_index(const U256& k, int row) {
  unsigned v = 0;
  for (int t = 0; t < KeyTable::kTeeth; ++t) {
    v |= static_cast<unsigned>(k.bit(KeyTable::kRows * t + row)) << t;
  }
  return v;
}

/// Insert into the hot generation; when it fills, it becomes the cold one
/// and the previous cold generation is dropped.
template <class Gen, class... Args>
void insert_rotating(Gen& hot, Gen& cold, std::size_t hot_max,
                     Args&&... args) {
  hot.emplace(std::forward<Args>(args)...);
  if (hot.size() >= hot_max) {
    cold = std::move(hot);
    hot.clear();
  }
}

}  // namespace

KeyTable::KeyTable(const Point& p) {
  // teeth[t] = 2^(kRows·t)·P; entry v-1 adds the teeth of v's set bits,
  // built from the entry without v's lowest bit.
  std::array<Point, kTeeth> teeth;
  teeth[0] = p;
  for (int t = 1; t < kTeeth; ++t) {
    teeth[t] = teeth[t - 1];
    for (int i = 0; i < kRows; ++i) teeth[t] = teeth[t].doubled();
  }
  std::vector<Point> jac(entries_.size());
  for (unsigned v = 1; v <= entries_.size(); ++v) {
    const Point& tooth = teeth[static_cast<std::size_t>(std::countr_zero(v))];
    const unsigned rest = v & (v - 1);
    jac[v - 1] = rest == 0 ? tooth : jac[rest - 1].add(tooth);
  }
  const std::vector<Point::Affine> affine = Point::batch_to_affine(jac);
  std::copy(affine.begin(), affine.end(), entries_.begin());
}

Point KeyTable::mul(const U256& k) const {
  const fn::LambdaSplit split = fn::split_lambda(fn::reduce(k));
  Point acc;  // infinity
  for (int row = kRows - 1; row >= 0; --row) {
    acc = acc.doubled();
    if (const unsigned v = comb_index(split.k1, row); v != 0) {
      const Point::Affine& e = entries_[v - 1];
      acc = acc.add_affine(e.x, split.k1_neg ? fp::neg(e.y) : e.y);
    }
    if (const unsigned v = comb_index(split.k2, row); v != 0) {
      const Point::Affine& e = entries_[v - 1];
      acc = acc.add_affine(fp::mul(e.x, fp::beta()),
                           split.k2_neg ? fp::neg(e.y) : e.y);
    }
  }
  return acc;
}

KeyTableCache::KeyTableCache() {
  builds_counter();
  hits_counter();
}

KeyTableCache& KeyTableCache::instance() {
  static KeyTableCache cache;
  return cache;
}

std::shared_ptr<const KeyTable> KeyTableCache::lookup(const PublicKey& pub) {
  const Key key = pub.to_array();
  {
    std::lock_guard<std::mutex> lk(m_);
    if (auto it = tables_hot_.find(key); it != tables_hot_.end()) {
      hits_counter().inc();
      return it->second;
    }
    if (auto it = tables_cold_.find(key); it != tables_cold_.end()) {
      std::shared_ptr<const KeyTable> table = it->second;
      // Promote: recently used.
      insert_rotating(tables_hot_, tables_cold_, kHotMax, key, table);
      hits_counter().inc();
      return table;
    }
    if (seen_hot_.erase(key) + seen_cold_.erase(key) == 0) {
      insert_rotating(seen_hot_, seen_cold_, kHotMax, key);
      return nullptr;
    }
  }
  // Second sighting. Two lanes may race to build the same key; the first
  // insert wins and the other copy is dropped.
  auto built =
      std::make_shared<const KeyTable>(Point::from_affine(pub.x(), pub.y()));
  builds_counter().inc();
  std::lock_guard<std::mutex> lk(m_);
  if (auto it = tables_hot_.find(key); it != tables_hot_.end()) {
    return it->second;
  }
  insert_rotating(tables_hot_, tables_cold_, kHotMax, key, built);
  return built;
}

}  // namespace hc::crypto

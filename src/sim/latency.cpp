#include "sim/latency.hpp"

#include <algorithm>

namespace hc::sim {

Duration LatencyModel::sample(Rng& rng) const {
  if (jitter_ <= 0) return std::max<Duration>(base_, 1);
  return std::max<Duration>(rng.range(base_ - jitter_, base_ + jitter_), 1);
}

Duration LatencyModel::min_delay() const {
  return std::max<Duration>(jitter_ <= 0 ? base_ : base_ - jitter_, 1);
}

}  // namespace hc::sim

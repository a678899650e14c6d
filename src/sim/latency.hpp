// Link latency models for the simulated network.
//
// The paper's deployment target is a planetary P2P network (libp2p over
// WAN); the model here reproduces its relevant characteristics: a base
// propagation delay and jitter. net::Network holds one model for links
// inside a subnet and, optionally, a second for links between subnets
// (co-located validators on LAN-class links, WAN-class links between).
#pragma once

#include <cstdint>

#include "sim/clock.hpp"
#include "sim/rng.hpp"

namespace hc::sim {

/// Node identity within a simulation (dense small integers).
using NodeId = std::uint32_t;

class LatencyModel {
 public:
  /// Uniform jittered latency: base ± jitter.
  LatencyModel(Duration base, Duration jitter) : base_(base), jitter_(jitter) {}

  /// WAN default: 80ms ± 40ms, roughly public-internet gossip hops.
  [[nodiscard]] static LatencyModel wan() {
    return LatencyModel(80 * kMillisecond, 40 * kMillisecond);
  }
  /// LAN default: 1ms ± 0.5ms, co-located subnet validators.
  [[nodiscard]] static LatencyModel lan() {
    return LatencyModel(kMillisecond, kMillisecond / 2);
  }

  /// Sample a delivery delay for one transmission.
  [[nodiscard]] Duration sample(Rng& rng) const;

  /// Smallest delay sample() can ever return. ParallelExecutor uses it as
  /// its conservative lookahead: no delivery can land sooner than this.
  [[nodiscard]] Duration min_delay() const;

 private:
  Duration base_;
  Duration jitter_;
};

}  // namespace hc::sim

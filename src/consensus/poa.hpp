// Proof-of-Authority round-robin consensus.
//
// The simplest subnet engine: a fixed validator set takes turns producing
// one block per block_time; followers validate the leader's signature and
// commit immediately (instant finality, no fault tolerance to a silent
// leader — the chain stalls until the leader returns, which the failure-
// injection tests exercise). This is the engine the paper's low-latency
// use cases (§I "new use cases ... highly-customized environments") map to.
#pragma once

#include "consensus/block_sync.hpp"
#include "consensus/engine.hpp"
#include "consensus/wire.hpp"

namespace hc::consensus {

/// Durable production state (DESIGN.md §15): the highest height this
/// authority already produced a signed block for. Persisted before each
/// production so a restarted leader never signs a second, different block
/// for a height its pre-crash self already served.
struct PoaVoteState {
  chain::Epoch last_produced = 0;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.i64(s.last_produced);
  }
};

class PoaRoundRobin final : public Engine {
 public:
  PoaRoundRobin(EngineContext context, EngineConfig config);

  void start() override;
  void stop() override;
  void on_message(net::NodeId from, const net::Envelope& payload) override;
  [[nodiscard]] std::string_view name() const override {
    return "poa-round-robin";
  }

 private:
  void tick();
  /// BlockSync hook: `proof` is the height leader's signature over the
  /// block it produced.
  [[nodiscard]] bool verify_proof(chain::Epoch height, const Cid& block_cid,
                                  BytesView proof) const;

  EngineContext ctx_;
  EngineConfig cfg_;
  EngineMetrics metrics_;
  BlockSync sync_;
  bool running_ = false;
  sim::EventId timer_ = 0;
  chain::Epoch last_produced_ = 0;
  /// Stall detection for catch-up requests.
  chain::Epoch last_seen_head_ = 0;
  int stalled_ticks_ = 0;
};

}  // namespace hc::consensus

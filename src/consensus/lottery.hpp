// Power-weighted leader lottery (Expected-Consensus-style).
//
// Substitution for Filecoin EC (see DESIGN.md §2): each height draws a
// verifiable, deterministic leader ranking from H(prev_cid, height, key)
// weighted by validator power. Rank 0 proposes immediately; rank r acts as
// a fallback after r * (block_time / 2) of silence, so the chain keeps a
// steady cadence even with offline miners. Followers verify that the miner
// really holds the rank it claims. Finality is probabilistic (depth-based),
// like the PoW/PoS chains this models.
#pragma once

#include <map>

#include "consensus/engine.hpp"
#include "consensus/wire.hpp"
#include "crypto/u256.hpp"

namespace hc::consensus {

/// Durable production state (DESIGN.md §15): the highest height this miner
/// already proposed a signed block for. Persisted before each proposal so
/// a restarted miner never signs a second block for the same height.
struct LotteryVoteState {
  chain::Epoch proposed_height = 0;

  void encode_to(Encoder& e) const { e.i64(proposed_height); }
  static Result<LotteryVoteState> decode_from(Decoder& d) {
    LotteryVoteState s;
    HC_TRY(proposed_height, d.i64());
    s.proposed_height = proposed_height;
    return s;
  }
};

class PowerLottery final : public Engine {
 public:
  PowerLottery(EngineContext context, EngineConfig config);

  void start() override;
  void stop() override;
  void on_message(net::NodeId from, const net::Envelope& payload) override;
  [[nodiscard]] std::string_view name() const override {
    return "power-lottery";
  }

  /// Deterministic ranking of validator indices for (prev, height):
  /// index 0 is the expected leader. Exposed for tests/benches to verify
  /// power-weighted selection statistics.
  [[nodiscard]] static std::vector<std::size_t> rank_validators(
      const ValidatorSet& validators, const Cid& prev, chain::Epoch height);

 private:
  void tick();
  void maybe_propose();
  void try_commit_pending();

  EngineContext ctx_;
  EngineConfig cfg_;
  EngineMetrics metrics_;
  bool running_ = false;
  sim::EventId timer_ = 0;
  chain::Epoch proposed_height_ = 0;
  std::map<chain::Epoch, chain::Block> pending_;
  /// Simulated-time moment the current height's slot started.
  sim::Time slot_start_ = 0;
  chain::Epoch slot_height_ = 0;
};

}  // namespace hc::consensus

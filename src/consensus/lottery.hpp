// Power-weighted leader lottery (Expected-Consensus-style).
//
// Substitution for Filecoin EC (see DESIGN.md §2): each height draws a
// verifiable, deterministic leader ranking from H(prev_cid, height, key)
// weighted by validator power. Rank 0 proposes one block time into the
// height's slot; rank r steps in r block times later, so the chain keeps a
// steady cadence even with offline miners. Every block, fresh or relayed,
// goes through BlockSync; the proof it checks is the miner's signature plus
// the rank the miner claims in the ticket. Finality is probabilistic
// (depth-based), like the PoW/PoS chains this models.
#pragma once

#include "consensus/block_sync.hpp"
#include "consensus/engine.hpp"
#include "consensus/wire.hpp"
#include "crypto/u256.hpp"

namespace hc::consensus {

/// Durable production state (DESIGN.md §15): the highest height this miner
/// already proposed a signed block for. Persisted before each proposal so
/// a restarted miner never signs a second block for the same height.
struct LotteryVoteState {
  chain::Epoch proposed_height = 0;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.i64(s.proposed_height);
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
  /// BlockSync hook: `proof` is the miner's signature over the block, and
  /// the miner holds the rank its ticket claims in the draw over the
  /// block's own parent.
  [[nodiscard]] bool verify_proof(chain::Epoch height, const Cid& block_cid,
                                  const chain::Block& block,
                                  BytesView proof) const;

  EngineContext ctx_;
  EngineConfig cfg_;
  EngineMetrics metrics_;
  BlockSync sync_;
  bool running_ = false;
  sim::EventId timer_ = 0;
  chain::Epoch proposed_height_ = 0;
  /// Simulated-time moment the current height's slot started.
  sim::Time slot_start_ = 0;
  chain::Epoch slot_height_ = 0;
};

}  // namespace hc::consensus

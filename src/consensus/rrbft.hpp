// Rotating-leader BFT with single-round acknowledgements (MirBFT stand-in).
//
// Paper §VI names MirBFT as a planned subnet consensus. This engine stands
// in for a leader-rotating, high-throughput BFT: the height's leader
// proposes a batch; validators broadcast signed ACKs; everyone commits on a
// 2f+1 ACK quorum, whose signatures form the block's quorum certificate.
// On leader silence the round counter advances to a backup leader. Compared
// to Tendermint it trades the locking machinery (and thus some liveness
// edge cases under equivocating leaders) for one fewer voting phase —
// the E7 consensus-comparison bench quantifies that tradeoff.
#pragma once

#include <map>

#include "consensus/block_sync.hpp"
#include "consensus/engine.hpp"
#include "consensus/wire.hpp"

namespace hc::consensus {

/// Durable vote state (DESIGN.md §15), persisted through the VoteStore
/// before each proposal/ACK broadcast so a restarted validator never
/// re-signs differently at a (height, round) it already signed in.
struct RrBftVoteState {
  chain::Epoch height = 0;
  std::uint32_t round = 0;
  bool proposed = false;
  bool acked = false;

  void encode_to(Encoder& e) const {
    e.i64(height).u32(round).u8(proposed ? 1 : 0).u8(acked ? 1 : 0);
  }
  static Result<RrBftVoteState> decode_from(Decoder& d) {
    RrBftVoteState s;
    HC_TRY(height, d.i64());
    s.height = height;
    HC_TRY(round, d.u32());
    s.round = round;
    HC_TRY(proposed, d.u8());
    s.proposed = proposed != 0;
    HC_TRY(acked, d.u8());
    s.acked = acked != 0;
    return s;
  }
};

class RoundRobinBft final : public Engine {
 public:
  RoundRobinBft(EngineContext context, EngineConfig config);

  void start() override;
  void stop() override;
  void on_message(net::NodeId from, const net::Envelope& payload) override;
  [[nodiscard]] std::string_view name() const override {
    return "round-robin-bft";
  }

 private:
  void new_height();
  void start_round(std::uint32_t round);
  /// Leader-failure timeout: move to round+1 unless this round ends first.
  void arm_round_timeout(std::uint64_t epoch);
  void broadcast(WireMsg msg);
  void handle(WireMsg msg);
  void maybe_commit(std::uint32_t round, const Cid& cid);

  /// Write-ahead barrier: durably record the current vote state before a
  /// signed broadcast (no-op without a VoteStore).
  void persist_votes();
  /// Rejoin the restored in-flight round without re-signing anything.
  void resume_round();
  [[nodiscard]] bool behind_restored() const {
    return restored_.has_value() && height_ < restored_->height;
  }

  EngineContext ctx_;
  EngineConfig cfg_;
  EngineMetrics metrics_;
  BlockSync sync_;
  bool running_ = false;
  chain::Epoch height_ = 0;
  std::uint32_t round_ = 0;
  std::uint64_t timer_epoch_ = 0;
  bool proposed_this_round_ = false;
  bool acked_this_round_ = false;
  /// Vote state recovered from the WAL (see TendermintVoteState docs).
  std::optional<RrBftVoteState> restored_;
  std::map<std::uint32_t, chain::Block> proposals_;
  std::map<std::uint32_t, std::map<Cid, VoteSet>> acks_;
  std::vector<WireMsg> future_;
};

}  // namespace hc::consensus

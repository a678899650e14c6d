// Tendermint-style BFT consensus (propose / prevote / precommit).
//
// Paper §VI lists Tendermint as an integration target for subnets. This is
// a faithful (if compact) implementation of the 3-phase algorithm: rotating
// proposers per round, 2f+1 polka locking, nil-votes on timeout, and commit
// certificates (quorum certs) recorded as the block's consensus proof —
// which doubles as the light-client evidence a subnet can cite in its
// checkpoints (§II). Safe with up to f = (n-1)/3 Byzantine validators;
// liveness requires partial synchrony (timeouts grow with round number).
#pragma once

#include <map>
#include <optional>

#include "consensus/block_sync.hpp"
#include "consensus/engine.hpp"
#include "consensus/wire.hpp"

namespace hc::consensus {

/// Durable vote state (DESIGN.md §15): everything a restarted validator
/// needs to avoid re-signing differently at a (height, round) its
/// pre-crash self already signed in. Persisted through the EngineContext
/// VoteStore before each proposal/prevote/precommit broadcast, last-wins.
struct TendermintVoteState {
  chain::Epoch height = 0;
  std::uint32_t round = 0;
  bool proposed = false;
  bool prevoted = false;
  bool precommitted = false;
  std::int64_t locked_round = -1;
  Bytes locked_block;  ///< encoded chain::Block; empty = no lock

  void encode_to(Encoder& e) const {
    e.i64(height)
        .u32(round)
        .u8(proposed ? 1 : 0)
        .u8(prevoted ? 1 : 0)
        .u8(precommitted ? 1 : 0)
        .i64(locked_round)
        .bytes(locked_block);
  }
  static Result<TendermintVoteState> decode_from(Decoder& d) {
    TendermintVoteState s;
    HC_TRY(height, d.i64());
    s.height = height;
    HC_TRY(round, d.u32());
    s.round = round;
    HC_TRY(proposed, d.u8());
    s.proposed = proposed != 0;
    HC_TRY(prevoted, d.u8());
    s.prevoted = prevoted != 0;
    HC_TRY(precommitted, d.u8());
    s.precommitted = precommitted != 0;
    HC_TRY(locked_round, d.i64());
    s.locked_round = locked_round;
    HC_TRY(locked_block, d.bytes());
    s.locked_block = std::move(locked_block);
    return s;
  }
};

class Tendermint final : public Engine {
 public:
  Tendermint(EngineContext context, EngineConfig config);

  void start() override;
  void stop() override;
  void on_message(net::NodeId from, const net::Envelope& payload) override;
  [[nodiscard]] std::string_view name() const override { return "tendermint"; }

 private:
  enum class Step { kPropose, kPrevote, kPrecommit };

  [[nodiscard]] sim::Duration timeout_for(std::uint32_t round) const;

  void new_height();
  void start_round(std::uint32_t round);
  /// Move to round_+1 after `delay` unless this round ends first.
  void arm_next_round(std::uint64_t epoch, sim::Duration delay);
  void broadcast(WireMsg msg);
  void handle(WireMsg msg);

  void on_proposal(WireMsg msg);
  void on_prevote(const WireMsg& msg);
  void on_precommit(const WireMsg& msg);

  void do_prevote(std::uint32_t round);
  void do_precommit(std::uint32_t round, const Cid& cid);
  void try_commit(std::uint32_t round, const Cid& cid);

  /// Write-ahead barrier: durably record the current vote state (no-op
  /// without a VoteStore). Called BEFORE any signed broadcast.
  void persist_votes();
  /// Rejoin the restored in-flight round without re-signing anything.
  void resume_round();
  /// True while the chain is still below a height the pre-crash self
  /// voted at (lost un-fsynced tail): stay passive, catch up only.
  [[nodiscard]] bool behind_restored() const {
    return restored_.has_value() && height_ < restored_->height;
  }

  [[nodiscard]] std::size_t count_votes(
      const std::map<std::uint32_t, std::map<Cid, VoteSet>>& votes,
      std::uint32_t round, const Cid& cid) const;

  EngineContext ctx_;
  EngineConfig cfg_;
  EngineMetrics metrics_;
  BlockSync sync_;
  bool running_ = false;

  chain::Epoch height_ = 0;
  std::uint32_t round_ = 0;
  Step step_ = Step::kPropose;
  std::uint64_t timer_epoch_ = 0;  // invalidates stale timeout callbacks

  std::map<std::uint32_t, chain::Block> proposals_;  // by round
  std::map<std::uint32_t, std::map<Cid, VoteSet>> prevotes_;
  std::map<std::uint32_t, std::map<Cid, VoteSet>> precommits_;
  std::optional<chain::Block> locked_block_;
  std::int64_t locked_round_ = -1;
  bool proposed_this_round_ = false;
  bool prevoted_this_round_ = false;
  bool precommitted_this_round_ = false;
  /// Vote state recovered from the WAL, held until the chain reaches its
  /// height (then consumed by resume_round) or passes it (then dropped).
  std::optional<TendermintVoteState> restored_;

  /// Messages for future heights, replayed after commit.
  std::vector<WireMsg> future_;
};

}  // namespace hc::consensus

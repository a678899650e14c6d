// Leader-paced BFT consensus: Tendermint and rrBFT as one engine.
//
// Paper §VI names Tendermint and MirBFT as subnet consensus targets. Both
// run here as one machine: the (height, round) leader proposes a block,
// validators sign votes in one or more phases, and 2f+1 votes of the last
// phase commit it. Those signatures form the block's quorum certificate,
// which doubles as the light-client evidence a subnet cites in its
// checkpoints (§II). A silent or slow leader costs a round; timeouts grow
// with the round number (partial synchrony). A BftPolicy names what the
// two protocols do differently:
//  - Tendermint: prevote then precommit, 2f+1 polka locking, and a nil
//    vote on each phase's timeout. Safe with f = (n-1)/3 Byzantine.
//  - rrBFT, the MirBFT stand-in: one ACK phase and no lock, so one fewer
//    message delay (and fewer liveness guarantees under equivocating
//    leaders; bench E7 measures the trade). A round timer moves to the
//    backup leader, and a valid proposal from a later round's leader
//    pulls a lagging validator forward.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <span>

#include "consensus/block_sync.hpp"
#include "consensus/engine.hpp"
#include "consensus/wire.hpp"

namespace hc::consensus {

inline constexpr std::size_t kMaxVotePhases = 2;

/// What distinguishes one BFT protocol from another. Only make_engine
/// picks one, per ConsensusType; it is no configuration option.
struct BftPolicy {
  /// Engine::name(), the metric `engine` label and the profiler phase.
  std::string_view name;
  /// Vote kinds in signing order. The last phase decides: its quorum
  /// commits, and its votes form the QuorumCert.
  std::span<const WireKind> phases;
  /// Lock on a first-phase quorum (polka) for a block: re-propose the
  /// locked block and vote against no other at this height.
  bool locks = false;
  /// Each phase has a timeout that casts a nil vote in the next phase
  /// (the propose timeout votes nil in the first). Otherwise one round
  /// timer moves to the next round, and only a valid block gets a vote.
  bool nil_votes = false;
  /// A valid proposal from the leader of a later round moves this
  /// validator to that round. A restarted validator resumes at its
  /// persisted round while its peers timed out past it; without the jump
  /// the two sides chase round counters and never overlap.
  bool round_jump = false;

  [[nodiscard]] constexpr WireKind qc_kind() const { return phases.back(); }
};

inline constexpr WireKind kTendermintPhases[] = {WireKind::kPrevote,
                                                 WireKind::kPrecommit};
inline constexpr WireKind kRrBftPhases[] = {WireKind::kAck};
static_assert(std::size(kTendermintPhases) <= kMaxVotePhases &&
              std::size(kRrBftPhases) <= kMaxVotePhases);

inline constexpr BftPolicy kTendermintPolicy{.name = "tendermint",
                                             .phases = kTendermintPhases,
                                             .locks = true,
                                             .nil_votes = true};
inline constexpr BftPolicy kRrBftPolicy{.name = "round-robin-bft",
                                        .phases = kRrBftPhases,
                                        .round_jump = true};

/// Durable vote state (DESIGN.md §15): everything a restarted validator
/// needs to avoid signing differently at a (height, round) its pre-crash
/// self already signed in. Persisted through the EngineContext VoteStore
/// before each proposal and vote leaves the node, last-wins. Encoded as
/// height (i64), round (u32), proposed (u8), one u8 per vote phase, then,
/// only for a locking policy, the locked round (i64) and the encoded
/// locked block (bytes; empty = no lock).
struct BftVoteState {
  chain::Epoch height = 0;
  std::uint32_t round = 0;
  bool proposed = false;
  std::array<bool, kMaxVotePhases> voted{};
  std::int64_t locked_round = -1;
  Bytes locked_block;

  [[nodiscard]] Bytes encode(const BftPolicy& policy) const;
  [[nodiscard]] static Result<BftVoteState> decode(BytesView data,
                                                   const BftPolicy& policy);
};

class BftEngine final : public Engine {
 public:
  BftEngine(const BftPolicy& policy, EngineContext context,
            EngineConfig config);

  void start() override;
  void stop() override;
  void on_message(net::NodeId from, const net::Envelope& payload) override;
  [[nodiscard]] std::string_view name() const override {
    return policy_.name;
  }

 private:
  using Votes = std::map<std::uint32_t, std::map<Cid, VoteSet>>;  // by round

  [[nodiscard]] sim::Duration timeout_for(std::uint32_t round) const;
  [[nodiscard]] std::size_t last_phase() const {
    return policy_.phases.size() - 1;
  }

  void new_height();
  void start_round(std::uint32_t round);
  /// Move to round_+1 after `delay` unless this round ends first.
  void arm_next_round(std::uint64_t epoch, sim::Duration delay);
  void broadcast(WireMsg msg);
  void handle(WireMsg msg);

  void on_proposal(WireMsg msg);
  void on_vote(std::size_t phase, const WireMsg& msg);

  /// First-phase vote on this round's proposal.
  void vote_on_proposal(std::uint32_t round);
  /// Vote `cid` in `phase` unless this validator may not.
  void vote(std::size_t phase, std::uint32_t round, const Cid& cid);
  [[nodiscard]] bool may_vote(std::size_t phase, std::uint32_t round) const {
    return !voted_[phase] && round == round_ && may_sign();
  }
  /// Write ahead, sign and broadcast a vote, then arm its phase timeout.
  void cast(std::size_t phase, std::uint32_t round, const Cid& cid);
  void try_commit(std::uint32_t round, const Cid& cid);

  /// Write-ahead barrier: durably record the current vote state (no-op
  /// without a VoteStore). Called BEFORE any signed broadcast.
  void persist_votes();
  /// Rejoin the restored in-flight round without re-signing anything.
  void resume_round();
  /// The one gate before every proposal and vote: only members sign, and
  /// not while the chain is still below a height the pre-crash self voted
  /// at (lost un-fsynced tail): stay passive, catch up only.
  [[nodiscard]] bool may_sign() const {
    return member_ &&
           !(restored_.has_value() && height_ < restored_->height);
  }

  BftPolicy policy_;
  EngineContext ctx_;
  EngineConfig cfg_;
  EngineMetrics metrics_;
  BlockSync sync_;
  bool member_ = false;
  bool running_ = false;

  chain::Epoch height_ = 0;
  std::uint32_t round_ = 0;
  /// 0 while awaiting the proposal, p + 1 once phase p's vote is out.
  std::size_t step_ = 0;
  std::uint64_t timer_epoch_ = 0;  // invalidates stale timeout callbacks

  std::map<std::uint32_t, chain::Block> proposals_;  // by round
  std::array<Votes, kMaxVotePhases> votes_;          // by phase
  std::optional<chain::Block> locked_block_;
  std::int64_t locked_round_ = -1;
  bool proposed_ = false;                     // this round
  std::array<bool, kMaxVotePhases> voted_{};  // this round, by phase
  /// Vote state recovered from the WAL, held until the chain reaches its
  /// height (then consumed by resume_round) or passes it (then dropped).
  std::optional<BftVoteState> restored_;

  /// Messages for future heights, replayed after commit.
  std::vector<WireMsg> future_;
};

}  // namespace hc::consensus

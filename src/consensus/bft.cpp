#include "consensus/bft.hpp"

namespace hc::consensus {

Bytes BftVoteState::encode(const BftPolicy& policy) const {
  Encoder e;
  e.i64(height).u32(round).u8(proposed ? 1 : 0);
  for (std::size_t p = 0; p < policy.phases.size(); ++p) {
    e.u8(voted[p] ? 1 : 0);
  }
  if (policy.locks) e.i64(locked_round).bytes(locked_block);
  return std::move(e).take();
}

Result<BftVoteState> BftVoteState::decode(BytesView data,
                                          const BftPolicy& policy) {
  Decoder d(data);
  BftVoteState s;
  HC_TRY(height, d.i64());
  s.height = height;
  HC_TRY(round, d.u32());
  s.round = round;
  HC_TRY(proposed, d.u8());
  s.proposed = proposed != 0;
  for (std::size_t p = 0; p < policy.phases.size(); ++p) {
    HC_TRY(voted, d.u8());
    s.voted[p] = voted != 0;
  }
  if (policy.locks) {
    HC_TRY(locked_round, d.i64());
    s.locked_round = locked_round;
    HC_TRY(locked_block, d.bytes());
    s.locked_block = std::move(locked_block);
  }
  if (!d.done()) return Error(Errc::kDecodeError, "trailing bytes");
  return s;
}

BftEngine::BftEngine(const BftPolicy& policy, EngineContext context,
                     EngineConfig config)
    : policy_(policy),
      ctx_(std::move(context)),
      cfg_(config),
      metrics_(ctx_, policy_.name),
      sync_(ctx_, cfg_.block_time, metrics_,
            [this](chain::Epoch height, const Cid& cid, const chain::Block&,
                   BytesView proof) {
              return verify_quorum_proof(ctx_.validators, policy_.qc_kind(),
                                         height, cid, proof);
            }),
      member_(ctx_.validators.index_of(ctx_.key.public_key()).has_value()) {}

sim::Duration BftEngine::timeout_for(std::uint32_t round) const {
  return cfg_.timeout_base +
         static_cast<sim::Duration>(round) * (cfg_.timeout_base / 2);
}

void BftEngine::start() {
  running_ = true;
  restored_.reset();
  if (ctx_.votes != nullptr) {
    if (const auto blob = ctx_.votes->recovered()) {
      if (auto st = BftVoteState::decode(*blob, policy_)) {
        restored_ = std::move(st).value();
      }
    }
  }
  new_height();
}

void BftEngine::persist_votes() {
  if (ctx_.votes == nullptr) return;
  BftVoteState st;
  st.height = height_;
  st.round = round_;
  st.proposed = proposed_;
  st.voted = voted_;
  st.locked_round = locked_round_;
  if (locked_block_.has_value()) st.locked_block = encode(*locked_block_);
  ctx_.votes->persist(st.encode(policy_));
}

void BftEngine::stop() {
  running_ = false;
  ++timer_epoch_;
}

void BftEngine::new_height() {
  height_ = ctx_.source->head_height() + 1;
  proposals_.clear();
  for (auto& v : votes_) v.clear();
  locked_block_.reset();
  locked_round_ = -1;
  // Replay buffered future-height messages after the state reset.
  std::vector<WireMsg> replay;
  replay.swap(future_);
  if (restored_.has_value() && restored_->height < height_) restored_.reset();
  if (restored_.has_value() && restored_->height == height_) {
    resume_round();
  } else {
    start_round(0);
  }
  for (auto& m : replay) handle(std::move(m));
}

void BftEngine::resume_round() {
  // Rejoin the round the pre-crash self was voting in. The persisted flags
  // gate every signing path, so nothing already signed is re-sent (let
  // alone re-signed differently); a single round timeout then advances to
  // round+1, where voting restarts fresh.
  const BftVoteState st = *restored_;
  restored_.reset();
  if (!st.locked_block.empty()) {
    if (auto b = decode<chain::Block>(st.locked_block)) {
      locked_block_ = std::move(b).value();
      locked_round_ = st.locked_round;
    }
  }
  round_ = st.round;
  proposed_ = st.proposed;
  voted_ = st.voted;
  step_ = 0;
  for (std::size_t p = 0; p <= last_phase(); ++p) {
    if (voted_[p]) step_ = p + 1;
  }
  metrics_.round();
  arm_next_round(++timer_epoch_, cfg_.block_time + timeout_for(round_));
}

void BftEngine::arm_next_round(std::uint64_t epoch, sim::Duration delay) {
  const std::uint32_t round = round_;
  ctx_.scheduler->schedule(delay, guarded([this, epoch, round] {
    if (!running_ || timer_epoch_ != epoch) return;
    if (round == round_) {
      metrics_.timeout();
      start_round(round + 1);
    }
  }));
}

void BftEngine::start_round(std::uint32_t round) {
  if (!running_) return;
  round_ = round;
  step_ = 0;
  proposed_ = false;
  voted_ = {};
  metrics_.round();
  if (round > 0) metrics_.view_change();
  const std::uint64_t epoch = ++timer_epoch_;

  if (ctx_.validators.leader(height_, round).key == ctx_.key.public_key()) {
    // Pace block production to the configured block time (round-0 only;
    // backup rounds are already late). Scheduling also bounds recursion:
    // commit -> new height -> proposal never nests inside a vote handler.
    const sim::Duration delay = round == 0 ? cfg_.block_time : 0;
    ctx_.scheduler->schedule(delay, guarded([this, epoch, round] {
      if (!running_ || timer_epoch_ != epoch || !may_sign()) return;
      obs::ProfileScope prof(metrics_.step_phase());
      chain::Block block =
          locked_block_.has_value()
              ? *locked_block_
              : ctx_.source->build_block(
                    Address::key(ctx_.key.public_key().to_bytes()), {});
      proposed_ = true;
      persist_votes();  // write-ahead: durable before the proposal is out
      broadcast(WireMsg::make(WireKind::kProposal, height_, round,
                              block.cid(), encode(block), ctx_.key));
    }));
  }
  const sim::Duration timeout = cfg_.block_time + timeout_for(round);
  if (!policy_.nil_votes) {
    arm_next_round(epoch, timeout);
    return;
  }
  // Propose timeout: vote nil if no (acceptable) proposal arrived.
  ctx_.scheduler->schedule(timeout, guarded([this, epoch, round] {
    if (!running_ || timer_epoch_ != epoch) return;
    if (step_ == 0) {
      metrics_.timeout();
      vote_on_proposal(round);
    }
  }));
}

void BftEngine::broadcast(WireMsg msg) {
  ctx_.network->publish(ctx_.node, ctx_.topic, encode(msg));
  handle(std::move(msg));  // gossip does not self-deliver
}

void BftEngine::on_message(net::NodeId from, const net::Envelope& payload) {
  (void)from;
  if (!running_) return;
  auto decoded = payload.decoded<WireMsg>();
  if (!decoded) return;
  handle(*decoded.value());  // shared decode, private mutable copy
}

void BftEngine::handle(WireMsg msg) {
  obs::ProfileScope prof(metrics_.step_phase());
  if (!msg.verify()) return;
  if (BlockSync::owns(msg)) {
    if (sync_.on_message(msg) > 0) new_height();
    return;
  }
  if (msg.height < height_) return;  // stale
  if (msg.height > height_) {
    // Two heights ahead: peers committed a block this replica never saw.
    if (msg.height > height_ + 1) sync_.request();
    if (future_.size() < 4096) future_.push_back(std::move(msg));
    return;
  }
  if (msg.kind == WireKind::kProposal) {
    on_proposal(std::move(msg));
    return;
  }
  for (std::size_t p = 0; p <= last_phase(); ++p) {
    if (msg.kind == policy_.phases[p]) {
      on_vote(p, msg);
      return;
    }
  }
}

void BftEngine::on_proposal(WireMsg msg) {
  // Only the legitimate proposer for (height, round) is accepted.
  if (!(ctx_.validators.leader(height_, msg.round).key == msg.sender)) return;
  auto block = decode<chain::Block>(msg.block);
  if (!block || block.value().cid() != msg.block_cid) return;
  proposals_[msg.round] = std::move(block).value();
  // Jumping skips rounds forward only, so voting in a round this validator
  // never signed in is safe.
  if (policy_.round_jump && msg.round > round_) start_round(msg.round);
  if (msg.round == round_ && step_ == 0) vote_on_proposal(msg.round);
}

void BftEngine::vote_on_proposal(std::uint32_t round) {
  if (!may_vote(0, round)) return;
  Cid vote;  // nil by default
  auto it = proposals_.find(round);
  if (it != proposals_.end()) {
    const chain::Block& proposal = it->second;
    const bool lock_allows =
        !locked_block_.has_value() || locked_block_->cid() == proposal.cid();
    if (lock_allows && ctx_.source->validate_block(proposal).ok()) {
      vote = proposal.cid();
    }
  }
  if (vote.is_null() && !policy_.nil_votes) return;
  cast(0, round, vote);
}

void BftEngine::vote(std::size_t phase, std::uint32_t round, const Cid& cid) {
  if (may_vote(phase, round)) cast(phase, round, cid);
}

void BftEngine::cast(std::size_t phase, std::uint32_t round, const Cid& cid) {
  voted_[phase] = true;
  step_ = phase + 1;
  persist_votes();  // write-ahead: durable before the vote is out
  broadcast(WireMsg::make(policy_.phases[phase], height_, round, cid, {},
                          ctx_.key));
  if (!policy_.nil_votes) return;
  // The broadcast may have committed and moved to the next height, so the
  // timer takes the epoch (and, for the round timer, the round) current
  // after it.
  const std::uint64_t epoch = timer_epoch_;
  if (phase == last_phase()) {
    // Last phase: move to the next round if nothing commits.
    arm_next_round(epoch, timeout_for(round));
    return;
  }
  // Vote nil in the next phase if no quorum materializes in this one.
  ctx_.scheduler->schedule(timeout_for(round),
                           guarded([this, epoch, round, phase] {
    if (!running_ || timer_epoch_ != epoch) return;
    if (step_ == phase + 1 && round == round_) {
      metrics_.timeout();
      vote(phase + 1, round, Cid());
    }
  }));
}

void BftEngine::on_vote(std::size_t phase, const WireMsg& msg) {
  const auto idx = ctx_.validators.index_of(msg.sender);
  if (!idx.has_value()) return;
  VoteSet& set = votes_[phase][msg.round][msg.block_cid];
  if (!set.emplace(*idx, msg.signature).second) return;  // duplicate
  const bool quorum = set.size() >= ctx_.validators.quorum();

  if (phase == last_phase()) {
    if (!msg.block_cid.is_null()) {
      if (quorum) try_commit(msg.round, msg.block_cid);
    } else if (quorum && msg.round == round_) {
      start_round(msg.round + 1);  // the round decided nil
    }
    return;
  }
  if (!quorum || msg.round != round_ || step_ != phase + 1) return;
  if (msg.block_cid.is_null()) {
    vote(phase + 1, msg.round, Cid());
    return;
  }
  // A quorum on a block (polka): lock it and vote it in the next phase.
  auto it = proposals_.find(msg.round);
  if (it == proposals_.end() || it->second.cid() != msg.block_cid) return;
  if (policy_.locks) {
    locked_block_ = it->second;
    locked_round_ = msg.round;
  }
  vote(phase + 1, msg.round, msg.block_cid);
}

void BftEngine::try_commit(std::uint32_t round, const Cid& cid) {
  auto it = proposals_.find(round);
  if (it == proposals_.end() || it->second.cid() != cid) {
    // We saw the quorum but miss the block; a committing peer's announce
    // brings it through BlockSync.
    return;
  }
  if (it->second.header.parent != ctx_.source->head_cid()) return;
  // The last phase's signatures form the commit certificate.
  sync_.commit_and_announce(
      it->second, round,
      quorum_proof(ctx_.validators, height_, round, cid,
                   votes_[last_phase()][round][cid]));
  new_height();
}

}  // namespace hc::consensus

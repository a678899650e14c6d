#include "consensus/tendermint.hpp"

namespace hc::consensus {

Tendermint::Tendermint(EngineContext context, EngineConfig config)
    : ctx_(std::move(context)),
      cfg_(config),
      metrics_(ctx_, "tendermint"),
      sync_(ctx_, cfg_.block_time, metrics_,
            [this](chain::Epoch height, const Cid& cid, const chain::Block&,
                   BytesView proof) {
              return verify_quorum_proof(ctx_.validators,
                                         WireKind::kPrecommit, height, cid,
                                         proof);
            }) {}

sim::Duration Tendermint::timeout_for(std::uint32_t round) const {
  return cfg_.timeout_base +
         static_cast<sim::Duration>(round) * (cfg_.timeout_base / 2);
}

void Tendermint::start() {
  running_ = true;
  restored_ = recovered_votes<TendermintVoteState>(ctx_);
  new_height();
}

void Tendermint::persist_votes() {
  if (ctx_.votes == nullptr) return;
  TendermintVoteState st;
  st.height = height_;
  st.round = round_;
  st.proposed = proposed_this_round_;
  st.prevoted = prevoted_this_round_;
  st.precommitted = precommitted_this_round_;
  st.locked_round = locked_round_;
  if (locked_block_.has_value()) st.locked_block = encode(*locked_block_);
  ctx_.votes->persist(encode(st));
}

void Tendermint::stop() {
  running_ = false;
  ++timer_epoch_;
}

void Tendermint::new_height() {
  height_ = ctx_.source->head_height() + 1;
  proposals_.clear();
  prevotes_.clear();
  precommits_.clear();
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

void Tendermint::resume_round() {
  // Rejoin the round the pre-crash self was voting in. The persisted flags
  // gate every signing path, so nothing already signed is re-sent (let
  // alone re-signed differently); a single round timeout then advances to
  // round+1, where voting restarts fresh.
  const TendermintVoteState st = *restored_;
  restored_.reset();
  if (!st.locked_block.empty()) {
    if (auto b = decode<chain::Block>(st.locked_block)) {
      locked_block_ = std::move(b).value();
      locked_round_ = st.locked_round;
    }
  }
  round_ = st.round;
  proposed_this_round_ = st.proposed;
  prevoted_this_round_ = st.prevoted;
  precommitted_this_round_ = st.precommitted;
  step_ = st.precommitted ? Step::kPrecommit
          : st.prevoted   ? Step::kPrevote
                          : Step::kPropose;
  metrics_.round();
  arm_next_round(++timer_epoch_, cfg_.block_time + timeout_for(round_));
}

void Tendermint::arm_next_round(std::uint64_t epoch, sim::Duration delay) {
  const std::uint32_t round = round_;
  ctx_.scheduler->schedule(delay, guarded([this, epoch, round] {
    if (!running_ || timer_epoch_ != epoch) return;
    if (round == round_) {
      metrics_.timeout();
      start_round(round + 1);
    }
  }));
}

void Tendermint::start_round(std::uint32_t round) {
  if (!running_) return;
  round_ = round;
  step_ = Step::kPropose;
  proposed_this_round_ = false;
  prevoted_this_round_ = false;
  precommitted_this_round_ = false;
  metrics_.round();
  if (round > 0) metrics_.view_change();
  const std::uint64_t epoch = ++timer_epoch_;

  if (ctx_.validators.leader(height_, round).key == ctx_.key.public_key()) {
    // Pace block production to the configured block time (round-0 only;
    // backup rounds are already late). Scheduling also bounds recursion:
    // commit -> new height -> proposal never nests inside a vote handler.
    const sim::Duration delay = round == 0 ? cfg_.block_time : 0;
    const chain::Epoch height = height_;
    ctx_.scheduler->schedule(delay, guarded([this, epoch, round, height] {
      if (!running_ || timer_epoch_ != epoch || height != height_) return;
      if (behind_restored()) return;  // passive until past pre-crash votes
      obs::ProfileScope prof(metrics_.step_phase());
      chain::Block block =
          locked_block_.has_value()
              ? *locked_block_
              : ctx_.source->build_block(
                    Address::key(ctx_.key.public_key().to_bytes()), {});
      proposed_this_round_ = true;
      persist_votes();  // write-ahead: durable before the proposal is out
      broadcast(WireMsg::make(WireKind::kProposal, height_, round,
                              block.cid(), encode(block), ctx_.key));
    }));
  }
  // Propose timeout: prevote nil if no (acceptable) proposal arrived.
  ctx_.scheduler->schedule(cfg_.block_time + timeout_for(round),
                           guarded([this, epoch, round] {
    if (!running_ || timer_epoch_ != epoch) return;
    if (step_ == Step::kPropose) {
      metrics_.timeout();
      do_prevote(round);
    }
  }));
}

void Tendermint::broadcast(WireMsg msg) {
  ctx_.network->publish(ctx_.node, ctx_.topic, encode(msg));
  handle(std::move(msg));  // gossip does not self-deliver
}

void Tendermint::on_message(net::NodeId from, const net::Envelope& payload) {
  (void)from;
  if (!running_) return;
  auto decoded = payload.decoded<WireMsg>();
  if (!decoded) return;
  handle(*decoded.value());  // shared decode, private mutable copy
}

void Tendermint::handle(WireMsg msg) {
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
  switch (msg.kind) {
    case WireKind::kProposal:
      on_proposal(std::move(msg));
      break;
    case WireKind::kPrevote:
      on_prevote(msg);
      break;
    case WireKind::kPrecommit:
      on_precommit(msg);
      break;
    default:
      break;
  }
}

void Tendermint::on_proposal(WireMsg msg) {
  // Only the legitimate proposer for (height, round) is accepted.
  if (!(ctx_.validators.leader(height_, msg.round).key == msg.sender)) return;
  auto block = decode<chain::Block>(msg.block);
  if (!block || block.value().cid() != msg.block_cid) return;
  proposals_[msg.round] = std::move(block).value();
  if (msg.round == round_ && step_ == Step::kPropose) {
    do_prevote(msg.round);
  }
}

void Tendermint::do_prevote(std::uint32_t round) {
  if (prevoted_this_round_ || round != round_) return;
  if (behind_restored()) return;  // passive until past pre-crash votes
  prevoted_this_round_ = true;
  step_ = Step::kPrevote;

  Cid vote;  // nil by default
  auto it = proposals_.find(round);
  if (it != proposals_.end()) {
    const chain::Block& proposal = it->second;
    const bool lock_allows =
        !locked_block_.has_value() ||
        locked_block_->cid() == proposal.cid();
    if (lock_allows && ctx_.source->validate_block(proposal).ok()) {
      vote = proposal.cid();
    }
  }
  persist_votes();  // write-ahead: durable before the vote is out
  broadcast(WireMsg::make(WireKind::kPrevote, height_, round, vote, {},
                          ctx_.key));

  // Prevote timeout: precommit nil if no polka materializes.
  const std::uint64_t epoch = timer_epoch_;
  ctx_.scheduler->schedule(timeout_for(round), guarded([this, epoch, round] {
    if (!running_ || timer_epoch_ != epoch) return;
    if (step_ == Step::kPrevote && round == round_) {
      metrics_.timeout();
      do_precommit(round, Cid());
    }
  }));
}

void Tendermint::on_prevote(const WireMsg& msg) {
  const auto idx = ctx_.validators.index_of(msg.sender);
  if (!idx.has_value()) return;
  VoteSet& set = prevotes_[msg.round][msg.block_cid];
  if (!set.emplace(*idx, msg.signature).second) return;  // duplicate

  if (msg.round != round_ || step_ != Step::kPrevote) return;
  const std::size_t quorum = ctx_.validators.quorum();
  // Polka on a block: lock and precommit it.
  if (!msg.block_cid.is_null() &&
      count_votes(prevotes_, msg.round, msg.block_cid) >= quorum) {
    auto it = proposals_.find(msg.round);
    if (it != proposals_.end() && it->second.cid() == msg.block_cid) {
      locked_block_ = it->second;
      locked_round_ = msg.round;
      do_precommit(msg.round, msg.block_cid);
      return;
    }
  }
  // Polka on nil: precommit nil.
  if (msg.block_cid.is_null() &&
      count_votes(prevotes_, msg.round, Cid()) >= quorum) {
    do_precommit(msg.round, Cid());
  }
}

void Tendermint::do_precommit(std::uint32_t round, const Cid& cid) {
  if (precommitted_this_round_ || round != round_) return;
  if (behind_restored()) return;  // passive until past pre-crash votes
  precommitted_this_round_ = true;
  step_ = Step::kPrecommit;
  persist_votes();  // write-ahead: durable before the vote is out
  broadcast(
      WireMsg::make(WireKind::kPrecommit, height_, round, cid, {}, ctx_.key));

  // Precommit timeout: move to the next round if nothing commits.
  arm_next_round(timer_epoch_, timeout_for(round));
}

void Tendermint::on_precommit(const WireMsg& msg) {
  const auto idx = ctx_.validators.index_of(msg.sender);
  if (!idx.has_value()) return;
  VoteSet& set = precommits_[msg.round][msg.block_cid];
  if (!set.emplace(*idx, msg.signature).second) return;

  const std::size_t quorum = ctx_.validators.quorum();
  if (!msg.block_cid.is_null() &&
      count_votes(precommits_, msg.round, msg.block_cid) >= quorum) {
    try_commit(msg.round, msg.block_cid);
    return;
  }
  if (msg.block_cid.is_null() && msg.round == round_ &&
      count_votes(precommits_, msg.round, Cid()) >= quorum) {
    start_round(msg.round + 1);
  }
}

void Tendermint::try_commit(std::uint32_t round, const Cid& cid) {
  auto it = proposals_.find(round);
  if (it == proposals_.end() || it->second.cid() != cid) {
    // We saw the quorum but miss the block; a committing peer's announce
    // brings it through BlockSync.
    return;
  }
  if (it->second.header.parent != ctx_.source->head_cid()) return;
  // The precommit signatures form the commit certificate.
  sync_.commit_and_announce(
      it->second, round,
      quorum_proof(ctx_.validators, height_, round, cid,
                   precommits_[round][cid]));
  new_height();
}

std::size_t Tendermint::count_votes(
    const std::map<std::uint32_t, std::map<Cid, VoteSet>>& votes,
    std::uint32_t round, const Cid& cid) const {
  auto rit = votes.find(round);
  if (rit == votes.end()) return 0;
  auto cit = rit->second.find(cid);
  return cit == rit->second.end() ? 0 : cit->second.size();
}

}  // namespace hc::consensus

#include "consensus/rrbft.hpp"

namespace hc::consensus {

RoundRobinBft::RoundRobinBft(EngineContext context, EngineConfig config)
    : ctx_(std::move(context)),
      cfg_(config),
      metrics_(ctx_, "round-robin-bft"),
      sync_(ctx_, cfg_.block_time, metrics_,
            [this](chain::Epoch height, const Cid& cid, const chain::Block&,
                   BytesView proof) {
              return verify_quorum_proof(ctx_.validators, WireKind::kAck,
                                         height, cid, proof);
            }) {}

void RoundRobinBft::start() {
  running_ = true;
  restored_ = recovered_votes<RrBftVoteState>(ctx_);
  new_height();
}

void RoundRobinBft::persist_votes() {
  if (ctx_.votes == nullptr) return;
  RrBftVoteState st;
  st.height = height_;
  st.round = round_;
  st.proposed = proposed_this_round_;
  st.acked = acked_this_round_;
  ctx_.votes->persist(encode(st));
}

void RoundRobinBft::stop() {
  running_ = false;
  ++timer_epoch_;
}

void RoundRobinBft::new_height() {
  height_ = ctx_.source->head_height() + 1;
  proposals_.clear();
  acks_.clear();
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

void RoundRobinBft::resume_round() {
  // Rejoin the round the pre-crash self signed in. The persisted flags
  // gate the proposal and ACK paths, so nothing is re-signed; the
  // leader-failure timeout then advances to round+1 as usual.
  const RrBftVoteState st = *restored_;
  restored_.reset();
  round_ = st.round;
  proposed_this_round_ = st.proposed;
  acked_this_round_ = st.acked;
  metrics_.round();
  arm_round_timeout(++timer_epoch_);
}

void RoundRobinBft::arm_round_timeout(std::uint64_t epoch) {
  const std::uint32_t round = round_;
  const sim::Duration timeout =
      cfg_.block_time + cfg_.timeout_base +
      static_cast<sim::Duration>(round) * (cfg_.timeout_base / 2);
  ctx_.scheduler->schedule(timeout, guarded([this, epoch, round] {
    if (!running_ || timer_epoch_ != epoch) return;
    if (round == round_) {
      metrics_.timeout();
      start_round(round + 1);
    }
  }));
}

void RoundRobinBft::start_round(std::uint32_t round) {
  if (!running_) return;
  round_ = round;
  proposed_this_round_ = false;
  acked_this_round_ = false;
  metrics_.round();
  if (round > 0) metrics_.view_change();
  const std::uint64_t epoch = ++timer_epoch_;

  if (ctx_.validators.leader(height_, round).key == ctx_.key.public_key()) {
    // Pace block production: leaders wait out the block time before
    // proposing (round > 0 backups fire immediately — they are already
    // late).
    const sim::Duration delay = round == 0 ? cfg_.block_time : 0;
    ctx_.scheduler->schedule(delay, guarded([this, epoch, round] {
      if (!running_ || timer_epoch_ != epoch) return;
      if (behind_restored()) return;  // passive until past pre-crash votes
      obs::ProfileScope prof(metrics_.step_phase());
      chain::Block block = ctx_.source->build_block(
          Address::key(ctx_.key.public_key().to_bytes()), {});
      proposed_this_round_ = true;
      persist_votes();  // write-ahead: durable before the proposal is out
      broadcast(WireMsg::make(WireKind::kProposal, height_, round,
                              block.cid(), encode(block), ctx_.key));
    }));
  }
  arm_round_timeout(epoch);
}

void RoundRobinBft::broadcast(WireMsg msg) {
  ctx_.network->publish(ctx_.node, ctx_.topic, encode(msg));
  handle(std::move(msg));
}

void RoundRobinBft::on_message(net::NodeId from,
                               const net::Envelope& payload) {
  (void)from;
  if (!running_) return;
  auto decoded = payload.decoded<WireMsg>();
  if (!decoded) return;
  handle(*decoded.value());  // shared decode, private mutable copy
}

void RoundRobinBft::handle(WireMsg msg) {
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
    if (!(ctx_.validators.leader(height_, msg.round).key == msg.sender)) return;
    auto block = decode<chain::Block>(msg.block);
    if (!block || block.value().cid() != msg.block_cid) return;
    proposals_[msg.round] = std::move(block).value();
    // Round synchronization: a valid proposal from THE leader of a later
    // round pulls us forward. A restarted validator rejoins at its
    // persisted round while peers timed out far past it; without the jump
    // the two sides chase round counters and never overlap. Acking a round
    // we never signed in is safe — the jump only skips rounds forward.
    if (msg.round > round_) start_round(msg.round);
    if (msg.round == round_ && !acked_this_round_ && !behind_restored() &&
        ctx_.validators.index_of(ctx_.key.public_key()).has_value() &&
        ctx_.source->validate_block(proposals_[msg.round]).ok()) {
      acked_this_round_ = true;
      persist_votes();  // write-ahead: durable before the ACK is out
      broadcast(WireMsg::make(WireKind::kAck, height_, msg.round,
                              msg.block_cid, {}, ctx_.key));
    }
    return;
  }
  if (msg.kind == WireKind::kAck) {
    const auto idx = ctx_.validators.index_of(msg.sender);
    if (!idx.has_value()) return;
    acks_[msg.round][msg.block_cid].emplace(*idx, msg.signature);
    maybe_commit(msg.round, msg.block_cid);
  }
}

void RoundRobinBft::maybe_commit(std::uint32_t round, const Cid& cid) {
  const auto rit = acks_.find(round);
  if (rit == acks_.end()) return;
  const auto cit = rit->second.find(cid);
  if (cit == rit->second.end()) return;
  if (cit->second.size() < ctx_.validators.quorum()) return;

  auto pit = proposals_.find(round);
  if (pit == proposals_.end() || pit->second.cid() != cid) return;
  if (pit->second.header.parent != ctx_.source->head_cid()) return;
  // The ACK signatures form the commit certificate.
  sync_.commit_and_announce(
      pit->second, round,
      quorum_proof(ctx_.validators, height_, round, cid, cit->second));
  new_height();
}

}  // namespace hc::consensus

#include "consensus/poa.hpp"

#include "crypto/sigcache.hpp"

namespace hc::consensus {

PoaRoundRobin::PoaRoundRobin(EngineContext context, EngineConfig config)
    : ctx_(std::move(context)),
      cfg_(config),
      metrics_(ctx_, "poa-round-robin"),
      sync_(ctx_, cfg_.block_time, metrics_,
            [this](chain::Epoch height, const Cid& cid, const chain::Block&,
                   BytesView proof) {
              return verify_proof(height, cid, proof);
            }) {}

void PoaRoundRobin::start() {
  running_ = true;
  if (const auto st = recovered_votes<PoaVoteState>(ctx_)) {
    // Never produce again for a height the pre-crash self already signed
    // a block for (the block may live on only in peers' chains if the
    // crash ate the un-fsynced tail).
    last_produced_ = std::max(last_produced_, st->last_produced);
  }
  timer_ = ctx_.scheduler->schedule(cfg_.block_time, [this] { tick(); });
}

void PoaRoundRobin::stop() {
  running_ = false;
  ctx_.scheduler->cancel(timer_);
}

void PoaRoundRobin::tick() {
  if (!running_) return;
  obs::ProfileScope prof(metrics_.step_phase());
  // Stall detection: if the chain has not advanced for a few ticks and it
  // is not our turn, ask peers whether we are behind.
  if (ctx_.source->head_height() == last_seen_head_) {
    if (++stalled_ticks_ >= 3) {
      stalled_ticks_ = 0;
      metrics_.timeout();
      sync_.request();
    }
  } else {
    last_seen_head_ = ctx_.source->head_height();
    stalled_ticks_ = 0;
  }
  const chain::Epoch next = ctx_.source->head_height() + 1;
  if (next > last_produced_ && !sync_.holding() &&
      ctx_.validators.leader(next).key == ctx_.key.public_key()) {
    last_produced_ = next;
    if (ctx_.votes != nullptr) {
      // Write-ahead: durable before the signed block leaves the node.
      ctx_.votes->persist(encode(PoaVoteState{last_produced_}));
    }
    metrics_.round();
    chain::Block block = ctx_.source->build_block(
        Address::key(ctx_.key.public_key().to_bytes()), {});
    const Cid cid = block.cid();
    WireMsg msg = WireMsg::make(WireKind::kBlock, next, 0, cid,
                                encode(block), ctx_.key);
    ctx_.network->publish(ctx_.node, ctx_.topic, encode(msg));
    // The leader commits its own block directly.
    ctx_.source->commit_block(std::move(block), encode(msg.signature));
    sync_.drain();
  }
  timer_ = ctx_.scheduler->schedule(cfg_.block_time, [this] { tick(); });
}

void PoaRoundRobin::on_message(net::NodeId from,
                               const net::Envelope& payload) {
  (void)from;
  if (!running_) return;
  obs::ProfileScope prof(metrics_.step_phase());
  auto decoded = payload.decoded<WireMsg>();
  if (!decoded) return;
  WireMsg msg = *decoded.value();  // shared decode, private mutable copy
  if (!msg.verify() || !BlockSync::owns(msg)) return;
  if (msg.kind == WireKind::kBlock &&
      ctx_.validators.leader(msg.height).key == msg.sender) {
    // Straight from the height's leader: its own signature is the proof.
    sync_.offer(msg, encode(msg.signature), /*verify=*/false);
  } else {
    sync_.on_message(msg);
  }
}

bool PoaRoundRobin::verify_proof(chain::Epoch height, const Cid& block_cid,
                                 BytesView proof) const {
  auto sig = decode<crypto::Signature>(proof);
  // The leader gossiped this signature over the same payload, so a replica
  // that saw the gossip finds the outcome in the SigCache.
  return sig &&
         crypto::verify_cached(ctx_.validators.leader(height).key,
                               WireMsg::signing_payload(WireKind::kBlock,
                                                        height, 0, block_cid),
                               sig.value());
}

}  // namespace hc::consensus

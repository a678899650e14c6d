#include "consensus/poa.hpp"

#include "common/log.hpp"

namespace hc::consensus {

PoaRoundRobin::PoaRoundRobin(EngineContext context, EngineConfig config)
    : ctx_(std::move(context)),
      cfg_(config),
      metrics_(ctx_, "poa-round-robin") {}

const Validator& PoaRoundRobin::leader(chain::Epoch height) const {
  const auto& members = ctx_.validators.members();
  return members[static_cast<std::size_t>(height) % members.size()];
}

void PoaRoundRobin::start() {
  running_ = true;
  if (ctx_.votes != nullptr) {
    if (const auto blob = ctx_.votes->recovered()) {
      if (auto st = decode<PoaVoteState>(*blob)) {
        // Never produce again for a height the pre-crash self already
        // signed a block for (the block may live on only in peers'
        // chains if the crash ate the un-fsynced tail).
        last_produced_ = std::max(last_produced_, st.value().last_produced);
      }
    }
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
      request_catch_up();
    }
  } else {
    last_seen_head_ = ctx_.source->head_height();
    stalled_ticks_ = 0;
  }
  const chain::Epoch next = ctx_.source->head_height() + 1;
  if (next > last_produced_ &&
      ctx_.scheduler->now() >= no_produce_before_ &&
      leader(next).key == ctx_.key.public_key()) {
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
    try_commit_pending();
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
  if (!msg.verify()) return;

  if (msg.kind == WireKind::kAck) {
    // Catch-up request: a peer (validator or observer) is missing blocks
    // from msg.height on.
    serve_catch_up(msg.height);
    return;
  }
  if (msg.kind != WireKind::kBlock) return;

  // Authority: either signed by THE leader for that height, or a relayed
  // catch-up copy carrying the leader's original signature in `extra`.
  const bool from_leader = leader(msg.height).key == msg.sender;
  if (!from_leader) {
    auto relayed = decode<crypto::Signature>(msg.extra);
    if (!relayed) return;
    const Bytes payload_signed = WireMsg::signing_payload(
        WireKind::kBlock, msg.height, 0, msg.block_cid);
    if (!crypto::verify(leader(msg.height).key, payload_signed,
                        relayed.value())) {
      return;
    }
  }
  auto block = decode<chain::Block>(msg.block);
  if (!block || block.value().cid() != msg.block_cid) return;
  if (msg.height <= ctx_.source->head_height()) return;  // already have it
  const Bytes proof =
      from_leader ? encode(msg.signature) : msg.extra;
  pending_[msg.height] =
      PendingBlock{std::move(block).value(), proof, !from_leader};
  if (msg.height > ctx_.source->head_height() + 1 &&
      !pending_.contains(ctx_.source->head_height() + 1)) {
    request_catch_up();
  }
  try_commit_pending();
}

void PoaRoundRobin::request_catch_up() {
  // One request per block time: a served batch arriving out of order must
  // not trigger a fresh broadcast per block (every peer answers every
  // request with a signed batch — unthrottled, that feedback amplifies
  // exponentially until the scheduler drowns).
  const sim::Time now = ctx_.scheduler->now();
  if (last_catch_up_request_ >= 0 &&
      now < last_catch_up_request_ + cfg_.block_time) {
    return;
  }
  last_catch_up_request_ = now;
  metrics_.catch_up();
  ctx_.network->publish(
      ctx_.node, ctx_.topic,
      encode(WireMsg::make(WireKind::kAck, ctx_.source->head_height() + 1, 0,
                           Cid(), {}, ctx_.key)));
}

void PoaRoundRobin::serve_catch_up(chain::Epoch from) {
  constexpr chain::Epoch kMaxServe = 16;
  const chain::Epoch to =
      std::min(ctx_.source->head_height(), from + kMaxServe - 1);
  for (chain::Epoch h = from; h <= to; ++h) {
    auto block = ctx_.source->block_at(h);
    if (!block.has_value()) continue;
    WireMsg relay = WireMsg::make(WireKind::kBlock, h, 0, block->cid(),
                                  encode(*block), ctx_.key);
    relay.extra = ctx_.source->proof_at(h);
    ctx_.network->publish(ctx_.node, ctx_.topic, encode(relay));
  }
}

void PoaRoundRobin::try_commit_pending() {
  for (;;) {
    const chain::Epoch next = ctx_.source->head_height() + 1;
    auto it = pending_.find(next);
    if (it == pending_.end()) break;
    PendingBlock pb = std::move(it->second);
    pending_.erase(it);
    if (pb.block.header.parent != ctx_.source->head_cid()) continue;
    if (Status ok = ctx_.source->validate_block(pb.block); !ok) {
      LogLine(LogLevel::kWarn, ctx_.scope)
              .kv("height", pb.block.header.height)
          << "poa: rejecting block: " << ok.error().to_string();
      continue;
    }
    if (pb.relayed) {
      // Accepting a relayed copy proves we are replaying history; hold off
      // producing until replay has visibly drained (the window covers the
      // stall-detection delay plus a serve round trip, and every further
      // relayed commit re-arms it). Producing mid-replay would fork us off
      // the canonical chain at the first height where we are leader.
      no_produce_before_ = ctx_.scheduler->now() + 5 * cfg_.block_time;
    }
    ctx_.source->commit_block(std::move(pb.block), std::move(pb.proof));
  }
  // Garbage-collect stale buffered blocks.
  const chain::Epoch head = ctx_.source->head_height();
  std::erase_if(pending_,
                [&](const auto& kv) { return kv.first <= head; });
}

}  // namespace hc::consensus

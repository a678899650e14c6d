#include "consensus/block_sync.hpp"

#include "common/log.hpp"

namespace hc::consensus {

BlockSync::BlockSync(const EngineContext& ctx, sim::Duration block_time,
                     EngineMetrics& metrics, VerifyProof verify_proof)
    : ctx_(ctx),
      block_time_(block_time),
      metrics_(metrics),
      verify_proof_(std::move(verify_proof)) {
  // A replica restarted with no vote state recovered cannot tell how far
  // behind it is, nor which heights it already produced: hold production
  // as after a relayed commit, until it has heard from its peers.
  if (ctx_.restarted && (ctx_.votes == nullptr || !ctx_.votes->recovered())) {
    hold_until_ = ctx_.scheduler->now() + 5 * block_time_;
  }
}

bool BlockSync::owns(const WireMsg& msg) {
  return msg.kind == WireKind::kBlock ||
         (msg.kind == WireKind::kAck && msg.block_cid.is_null());
}

std::size_t BlockSync::on_message(const WireMsg& msg) {
  if (msg.kind == WireKind::kAck) {
    // A peer (validator or observer) is missing blocks from msg.height on.
    serve(msg.height);
    return 0;
  }
  return buffer(msg, msg.extra, /*verify=*/true, /*relayed=*/true);
}

std::size_t BlockSync::offer(const WireMsg& msg, Bytes proof, bool verify) {
  return buffer(msg, std::move(proof), verify, /*relayed=*/false);
}

std::size_t BlockSync::buffer(const WireMsg& msg, Bytes proof, bool verify,
                              bool relayed) {
  const chain::Epoch head = ctx_.source->head_height();
  if (msg.height <= head) return 0;  // already have it
  auto block = decode<chain::Block>(msg.block);
  if (!block || block.value().cid() != msg.block_cid) return 0;
  if (verify &&
      !verify_proof_(msg.height, msg.block_cid, block.value(), proof)) {
    return 0;
  }
  if (msg.height > head + kMaxAhead) {
    request();
    return 0;
  }
  // Last arrival wins: every copy of a height carries a verified proof.
  pending_[msg.height] =
      Pending{std::move(block).value(), std::move(proof), relayed};
  if (msg.height > head + 1 && !pending_.contains(head + 1)) request();
  return drain();
}

void BlockSync::request() {
  const sim::Time now = ctx_.scheduler->now();
  if (last_request_ >= 0 && now < last_request_ + block_time_) return;
  last_request_ = now;
  metrics_.catch_up();
  ctx_.network->publish(
      ctx_.node, ctx_.topic,
      encode(WireMsg::make(WireKind::kAck, ctx_.source->head_height() + 1, 0,
                           Cid(), {}, ctx_.key)));
}

void BlockSync::serve(chain::Epoch from) {
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

std::size_t BlockSync::drain() {
  std::size_t committed = 0;
  for (;;) {
    auto it = pending_.find(ctx_.source->head_height() + 1);
    if (it == pending_.end()) break;
    Pending p = std::move(it->second);
    pending_.erase(it);
    if (p.block.header.parent != ctx_.source->head_cid()) continue;
    if (Status ok = ctx_.source->validate_block(p.block); !ok) {
      LogLine(LogLevel::kWarn, ctx_.scope)
              .kv("height", p.block.header.height)
          << "sync: rejecting block: " << ok.error().to_string();
      continue;
    }
    ++committed;
    if (p.relayed) hold_until_ = ctx_.scheduler->now() + 5 * block_time_;
    ctx_.source->commit_block(std::move(p.block), std::move(p.proof));
  }
  const chain::Epoch head = ctx_.source->head_height();
  std::erase_if(pending_, [&](const auto& kv) { return kv.first <= head; });
  return committed;
}

bool BlockSync::holding() const {
  return ctx_.scheduler->now() < hold_until_;
}

void BlockSync::commit_and_announce(const chain::Block& block,
                                    std::uint32_t round, Bytes proof) {
  ctx_.source->commit_block(block, proof);
  WireMsg announce = WireMsg::make(WireKind::kBlock, block.header.height,
                                   round, block.cid(), encode(block),
                                   ctx_.key);
  announce.extra = std::move(proof);
  ctx_.network->publish(ctx_.node, ctx_.topic, encode(announce));
  drain();
}

Bytes quorum_proof(const ValidatorSet& validators, chain::Epoch height,
                   std::uint32_t round, const Cid& block_cid,
                   const VoteSet& votes) {
  QuorumCert cert;
  cert.height = height;
  cert.round = round;
  cert.block_cid = block_cid;
  for (const auto& [index, sig] : votes) {
    cert.signers.push_back(validators.members()[index].key);
    cert.signatures.push_back(sig);
  }
  return encode(cert);
}

bool verify_quorum_proof(const ValidatorSet& validators, WireKind vote,
                         chain::Epoch height, const Cid& block_cid,
                         BytesView proof) {
  auto cert = decode<QuorumCert>(proof);
  if (!cert) return false;
  const QuorumCert& qc = cert.value();
  if (qc.height != height || qc.block_cid != block_cid) return false;
  for (const auto& key : qc.signers) {
    if (!validators.index_of(key).has_value()) return false;
  }
  return qc.verify(vote, validators.quorum());
}

}  // namespace hc::consensus

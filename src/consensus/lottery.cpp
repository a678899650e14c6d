#include "consensus/lottery.hpp"

#include <algorithm>
#include <numeric>

#include "crypto/sigcache.hpp"

namespace hc::consensus {

namespace {

/// Draw the raw 64-bit ticket for one validator.
std::uint64_t raw_ticket(const Cid& prev, chain::Epoch height,
                         const crypto::PublicKey& key) {
  Encoder e;
  e.str("hc/lottery").obj(prev).i64(height).obj(key);
  const Digest d = Sha256::hash(e.data());
  std::uint64_t t = 0;
  for (int i = 0; i < 8; ++i) t = (t << 8) | d[static_cast<std::size_t>(i)];
  return t;
}

}  // namespace

std::vector<std::size_t> PowerLottery::rank_validators(
    const ValidatorSet& validators, const Cid& prev, chain::Epoch height) {
  const auto& members = validators.members();
  std::vector<std::uint64_t> tickets(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    tickets[i] = raw_ticket(prev, height, members[i].key);
  }
  std::vector<std::size_t> order(members.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Effective ticket is ticket/power: compare as exact rationals in 128-bit
  // (t_a / p_a < t_b / p_b  <=>  t_a * p_b < t_b * p_a). Higher power =>
  // proportionally smaller effective ticket => leads more often.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const unsigned __int128 lhs =
        static_cast<unsigned __int128>(tickets[a]) * members[b].power;
    const unsigned __int128 rhs =
        static_cast<unsigned __int128>(tickets[b]) * members[a].power;
    if (lhs != rhs) return lhs < rhs;
    return a < b;  // stable total order
  });
  return order;
}

PowerLottery::PowerLottery(EngineContext context, EngineConfig config)
    : ctx_(std::move(context)),
      cfg_(config),
      metrics_(ctx_, "power-lottery"),
      sync_(ctx_, cfg_.block_time, metrics_,
            [this](chain::Epoch height, const Cid& cid,
                   const chain::Block& block, BytesView proof) {
              return verify_proof(height, cid, block, proof);
            }) {}

void PowerLottery::start() {
  running_ = true;
  if (const auto st = recovered_votes<LotteryVoteState>(ctx_)) {
    // Never propose again for a height the pre-crash self already mined
    // (its block may survive only in peers' chains).
    proposed_height_ = std::max(proposed_height_, st->proposed_height);
  }
  slot_start_ = ctx_.scheduler->now();
  slot_height_ = ctx_.source->head_height() + 1;
  // A restarted miner may be far behind, and the chain never stalls to
  // tell it so: ask at once instead of mining at a stale height.
  sync_.request();
  // Poll at quarter-block granularity: drives both leading and fallbacks.
  timer_ = ctx_.scheduler->schedule(cfg_.block_time, [this] { tick(); });
}

void PowerLottery::stop() {
  running_ = false;
  ctx_.scheduler->cancel(timer_);
}

void PowerLottery::tick() {
  if (!running_) return;
  obs::ProfileScope prof(metrics_.step_phase());
  maybe_propose();
  timer_ =
      ctx_.scheduler->schedule(cfg_.block_time / 4, [this] { tick(); });
}

void PowerLottery::maybe_propose() {
  const chain::Epoch next = ctx_.source->head_height() + 1;
  if (next != slot_height_) {
    slot_height_ = next;
    slot_start_ = ctx_.scheduler->now();
  }
  if (proposed_height_ >= next) return;
  // Behind the chain: a relayed copy committed lately.
  if (sync_.holding()) return;

  const auto order =
      rank_validators(ctx_.validators, ctx_.source->head_cid(), next);
  const auto my_index = ctx_.validators.index_of(ctx_.key.public_key());
  if (!my_index.has_value()) return;
  const auto rank_it = std::find(order.begin(), order.end(), *my_index);
  const std::size_t rank =
      static_cast<std::size_t>(rank_it - order.begin());

  // Rank 0 proposes after one block time; rank r steps in a full extra
  // block time later per rank, so gossip latency cannot race the expected
  // leader into a fork.
  const sim::Time due =
      slot_start_ +
      static_cast<sim::Duration>(rank + 1) * cfg_.block_time;
  if (ctx_.scheduler->now() < due) return;

  proposed_height_ = next;
  if (ctx_.votes != nullptr) {
    // Write-ahead: durable before the signed block leaves the node.
    ctx_.votes->persist(encode(LotteryVoteState{proposed_height_}));
  }
  metrics_.round();
  // A non-zero rank proposing means the expected leader stayed silent past
  // its slot — the fallback ladder is this engine's view-change analogue.
  if (rank > 0) metrics_.view_change();
  // The ticket records the claimed rank for verification.
  Encoder ticket;
  ticket.varint(rank);
  chain::Block block = ctx_.source->build_block(
      Address::key(ctx_.key.public_key().to_bytes()), ticket.data());

  WireMsg msg = WireMsg::make(WireKind::kBlock, next, 0, block.cid(),
                              encode(block), ctx_.key);
  ctx_.network->publish(ctx_.node, ctx_.topic, encode(msg));
  ctx_.source->commit_block(std::move(block), encode(msg.signature));
  sync_.drain();
}

void PowerLottery::on_message(net::NodeId from, const net::Envelope& payload) {
  (void)from;
  if (!running_) return;
  obs::ProfileScope prof(metrics_.step_phase());
  auto decoded = payload.decoded<WireMsg>();
  if (!decoded) return;
  WireMsg msg = *decoded.value();  // shared decode, private mutable copy
  if (!msg.verify() || !BlockSync::owns(msg)) return;
  if (msg.kind == WireKind::kBlock && msg.extra.empty()) {
    // Straight from its miner: the gossip signature is the proof.
    sync_.offer(msg, encode(msg.signature), /*verify=*/true);
  } else {
    sync_.on_message(msg);
  }
}

bool PowerLottery::verify_proof(chain::Epoch height, const Cid& block_cid,
                                const chain::Block& block,
                                BytesView proof) const {
  const auto order = rank_validators(ctx_.validators, block.header.parent,
                                     height);
  Decoder d(block.header.ticket);
  auto rank = d.varint();
  if (!rank || rank.value() >= order.size()) return false;
  const Validator& miner =
      ctx_.validators.members()[order[static_cast<std::size_t>(rank.value())]];
  if (block.header.miner != miner.address()) return false;
  auto sig = decode<crypto::Signature>(proof);
  // A fresh block's proof is the signature its gossip copy carried, which
  // msg.verify() just checked, so this is a SigCache hit.
  return sig &&
         crypto::verify_cached(miner.key,
                               WireMsg::signing_payload(WireKind::kBlock,
                                                        height, 0, block_cid),
                               sig.value());
}

}  // namespace hc::consensus

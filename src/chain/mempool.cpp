#include "chain/mempool.hpp"

namespace hc::chain {

using common::ShedReason;

bool Mempool::EvictKey::lower_priority_than(const EvictKey& o) const {
  if (gas_price != o.gas_price) return gas_price < o.gas_price;
  if (sender != o.sender) return sender > o.sender;
  return nonce > o.nonce;
}

void Mempool::erase_one(const Address& sender, std::uint64_t nonce) {
  auto it = pending_.find(sender);
  if (it == pending_.end()) return;
  if (it->second.erase(nonce) > 0) --size_;
  if (it->second.empty()) pending_.erase(it);
}

Status Mempool::add(SignedMessage msg, std::uint64_t next_nonce) {
  const bool sig_ok = msg.verify();
  // verify() encodes the signing payload only once the sender matches.
  if (sig_ok || msg.sender_matches_key()) {
    payload_bytes_ += encoded_size(msg.message);
  }
  if (!sig_ok) {
    return Error(Errc::kInvalidSignature, "mempool rejects unsigned message");
  }
  const std::uint64_t nonce = msg.message.nonce;
  if (config_.nonce_gap > 0 && nonce >= next_nonce &&
      nonce - next_nonce >= config_.nonce_gap) {
    shed_.count(ShedReason::kNonceGap);
    return Error(Errc::kOverloaded,
                 "nonce " + std::to_string(nonce) + " beyond admission window "
                 "(next " + std::to_string(next_nonce) + " + gap " +
                 std::to_string(config_.nonce_gap) + ")");
  }
  auto& per_sender = pending_[msg.message.from];
  if (per_sender.contains(nonce)) {
    return Error(Errc::kAlreadyExists,
                 "duplicate nonce " + std::to_string(nonce));
  }
  const EvictKey arrival{msg.message.gas_price, msg.message.from, nonce};
  if (config_.max_per_sender > 0 &&
      per_sender.size() >= config_.max_per_sender) {
    // A sender at cap may only trade its own highest nonce for a lower one.
    const std::uint64_t tail = per_sender.rbegin()->first;
    if (nonce > tail) {
      shed_.count(ShedReason::kPerSenderCap);
      return Error(Errc::kOverloaded,
                   "sender pending cap " +
                       std::to_string(config_.max_per_sender) + " reached");
    }
    erase_one(msg.message.from, tail);
    shed_.count(ShedReason::kEvicted);
  }
  if (config_.max_messages > 0 && size_ >= config_.max_messages) {
    // Evict the pool-wide lowest priority tail, unless the arrival itself
    // is the lowest priority — then refuse it instead. Candidates are each
    // sender's highest nonce only, so lower nonces always survive higher
    // ones of the same sender.
    std::optional<EvictKey> victim;
    for (const auto& [sender, msgs] : pending_) {
      if (msgs.empty()) continue;  // placeholder for the arriving sender
      const auto& tail = msgs.rbegin()->second.message;
      const EvictKey key{tail.gas_price, sender, tail.nonce};
      if (!victim || key.lower_priority_than(*victim)) victim = key;
    }
    if (!victim || !victim->lower_priority_than(arrival)) {
      auto self = pending_.find(msg.message.from);
      if (self != pending_.end() && self->second.empty()) pending_.erase(self);
      shed_.count(ShedReason::kQueueFull);
      return Error(Errc::kOverloaded,
                   "mempool full (" + std::to_string(config_.max_messages) +
                       " messages)");
    }
    erase_one(victim->sender, victim->nonce);
    shed_.count(ShedReason::kEvicted);
  }
  pending_[msg.message.from].emplace(nonce, std::move(msg));
  ++size_;
  shed_.observe(size_, 0);
  return ok_status();
}

std::vector<SignedMessage> Mempool::select(
    std::size_t max,
    const std::function<std::uint64_t(const Address&)>& next_nonce) const {
  std::vector<SignedMessage> out;
  for (const auto& [sender, msgs] : pending_) {
    std::uint64_t expected = next_nonce(sender);
    for (auto it = msgs.find(expected); it != msgs.end(); ++it) {
      if (it->first != expected) break;  // nonce gap: stop this sender
      if (out.size() >= max) return out;
      out.push_back(it->second);
      ++expected;
    }
  }
  return out;
}

void Mempool::remove_included(const std::vector<SignedMessage>& included) {
  for (const auto& sm : included) {
    erase_one(sm.message.from, sm.message.nonce);
  }
}

void Mempool::prune_stale(
    const std::function<std::uint64_t(const Address&)>& next_nonce) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    const std::uint64_t expected = next_nonce(it->first);
    auto& msgs = it->second;
    const auto cut = msgs.lower_bound(expected);
    size_ -= static_cast<std::size_t>(std::distance(msgs.begin(), cut));
    msgs.erase(msgs.begin(), cut);
    it = msgs.empty() ? pending_.erase(it) : std::next(it);
  }
}

}  // namespace hc::chain

// Mempool: pending user messages awaiting inclusion.
//
// Each subnet instantiates its own mempool (paper §III-A). Selection is
// deterministic: per-sender nonce order, senders in address order — so all
// honest proposers holding the same pool contents build the same block.
//
// The pool is bounded (DESIGN.md §14). Admission enforces a nonce-gap
// window and a per-sender pending cap; a full pool evicts deterministically
// by priority — lowest gas price first, ties broken by sender address
// (descending) then nonce (descending). Only each sender's highest pending
// nonce is ever evicted, so an includable lower-nonce message is never
// removed before a higher one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "chain/message.hpp"
#include "common/capacity.hpp"
#include "common/result.hpp"

namespace hc::chain {

/// Caps for one mempool; every limit 0 disables that limit, so a
/// default-constructed config only enforces the nonce-gap window.
struct MempoolConfig {
  /// Total pending messages across all senders (0 = unbounded).
  std::size_t max_messages = 0;
  /// Pending messages per sender (0 = unbounded).
  std::size_t max_per_sender = 0;
  /// Admission window: reject a nonce at or beyond `next_nonce + nonce_gap`
  /// (0 = any future nonce accepted). The default plugs the
  /// memory-exhaustion hole where one sender parks unbounded far-future
  /// nonces that prune_stale never reclaims.
  std::uint64_t nonce_gap = 1024;
};

class Mempool {
 public:
  Mempool() = default;
  explicit Mempool(MempoolConfig config) : config_(config) {}

  /// Add a message. Rejects invalid signatures, (sender, nonce) duplicates,
  /// nonces beyond the admission window (`next_nonce` comes from chain
  /// state), and — when the pool or the sender is at cap — either evicts
  /// the lowest-priority resident tail or rejects the arrival with
  /// kOverloaded if the arrival itself is the lowest priority.
  /// No balance check — that happens at execution.
  Status add(SignedMessage msg, std::uint64_t next_nonce = 0);

  /// Select up to `max` messages for a block, nonce-ordered per sender
  /// starting at each sender's `next_nonce` (from chain state).
  [[nodiscard]] std::vector<SignedMessage> select(
      std::size_t max,
      const std::function<std::uint64_t(const Address&)>& next_nonce) const;

  /// Drop messages included in a committed block (by sender+nonce).
  void remove_included(const std::vector<SignedMessage>& included);

  /// Drop every message whose nonce is below the sender's next nonce.
  void prune_stale(
      const std::function<std::uint64_t(const Address&)>& next_nonce);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] const MempoolConfig& config() const { return config_; }
  /// Shed/eviction ledger: kNonceGap, kPerSenderCap, kQueueFull count
  /// rejected arrivals; kEvicted counts residents displaced by
  /// higher-priority arrivals. peak_items tracks the high-water size.
  [[nodiscard]] const common::ShedStats& shed_stats() const { return shed_; }

  /// Signing-payload bytes admission encoded since the last call; the
  /// owning node drains this into obs at deterministic points.
  [[nodiscard]] std::uint64_t take_payload_bytes() {
    return std::exchange(payload_bytes_, 0);
  }

 private:
  /// Priority key for eviction: evict the *smallest* under (gas_price asc,
  /// sender desc, nonce desc). Higher nonce of the same sender is always
  /// less valuable than a lower one (it cannot be included first).
  struct EvictKey {
    TokenAmount gas_price;
    Address sender;
    std::uint64_t nonce = 0;
    [[nodiscard]] bool lower_priority_than(const EvictKey& o) const;
  };

  void erase_one(const Address& sender, std::uint64_t nonce);

  MempoolConfig config_;
  // sender -> (nonce -> message); ordered for deterministic iteration.
  std::map<Address, std::map<std::uint64_t, SignedMessage>> pending_;
  std::size_t size_ = 0;
  common::ShedStats shed_;
  std::uint64_t payload_bytes_ = 0;
};

}  // namespace hc::chain

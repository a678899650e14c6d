// Content-addressable storage.
//
// The CAS backs the paper's content-resolution registry (§IV-C: "the subnet
// SCA ... keeps a registry with all CIDs for CrossMsgMetas propagated (i.e.,
// a content-addressable key-value store)"), block/checkpoint stores, and
// the atomic-execution state exchange.
//
// The store accepts an optional common::CapacityPolicy (DESIGN.md §14):
// when bounded, admission past the cap evicts the OLDEST resident (stable
// insertion order, so eviction is deterministic) and the displacement is
// accounted in a reason-labelled ShedStats ledger. CAS entries are safe to
// evict — content is re-fetchable through the resolution protocol — so the
// policy turns the store into a bounded cache rather than refusing puts.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/capacity.hpp"
#include "common/cid.hpp"
#include "common/result.hpp"

namespace hc::storage {

/// In-memory content-addressable store: the key IS the content's CID, so
/// integrity is verified structurally on put.
class ContentStore {
 public:
  /// Store content under its computed CID; returns that CID. Idempotent.
  Cid put(CidCodec codec, Bytes content);

  /// Store content that must match a known CID (resolution responses).
  /// Fails with kInvalidArgument when the bytes do not hash to `expected`.
  Status put_verified(const Cid& expected, Bytes content);

  /// Zero-copy variant: share already-materialized bytes (e.g. a field of
  /// a gossip envelope's decoded object, via the shared_ptr aliasing
  /// constructor) instead of copying them into the store.
  Status put_verified(const Cid& expected,
                      std::shared_ptr<const Bytes> content);

  [[nodiscard]] bool has(const Cid& cid) const;
  [[nodiscard]] std::optional<Bytes> get(const Cid& cid) const;
  /// Zero-copy read: the returned pointer shares ownership with the store
  /// (and stays valid across eviction). Null when absent.
  [[nodiscard]] std::shared_ptr<const Bytes> get_shared(const Cid& cid) const;

  [[nodiscard]] std::size_t size() const { return blobs_.size(); }
  [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }

  /// Install a capacity cap (0 fields = unbounded). Existing residents are
  /// trimmed immediately if they already exceed the new cap.
  void set_policy(common::CapacityPolicy policy);
  [[nodiscard]] const common::CapacityPolicy& policy() const {
    return policy_;
  }
  [[nodiscard]] const common::ShedStats& shed_stats() const { return shed_; }

 private:
  /// Evict oldest residents until `incoming_items` more entries totalling
  /// `incoming_bytes` fit (0/0 = trim to the current policy).
  void make_room(std::size_t incoming_bytes, std::size_t incoming_items);
  void record(const Cid& cid, std::size_t bytes);

  // Shared immutable blobs: a resident can alias a gossip envelope's
  // decoded object (zero-copy put) and outlive eviction via get_shared().
  std::unordered_map<Cid, std::shared_ptr<const Bytes>> blobs_;
  std::deque<Cid> order_;  // insertion order; front = eviction candidate
  std::size_t total_bytes_ = 0;
  common::CapacityPolicy policy_;
  common::ShedStats shed_;
};

}  // namespace hc::storage

// Process-wide intern table for hierarchical subnet identities.
//
// Motivation (DESIGN.md §17): at city scale — O(1000) subnets, 4+ level
// trees — subnet ids appear in every cross-msg, checkpoint, gossip topic
// and metric label. Carrying a `std::vector<Address>` path per id copy and
// re-materializing "/root/f0100/..." strings per use makes identity cost
// O(depth) allocations on the hot path. The interner stores each distinct
// path ONCE and hands out a 4-byte handle (`SubnetRef`); every derived
// artifact — the address path, the canonical string, the pubsub topic and
// its per-protocol sub-topics, the SA address, the FNV path hash — is
// computed at intern time and shared by all holders for the process
// lifetime.
//
// The tree is parent-pointer shaped: entry(r).parent is the handle of the
// id one level up, so parent/ancestor/prefix queries walk O(depth) refs
// without touching addresses. Handle VALUES depend on intern order (first
// come, first numbered) and must never leak into anything observable; all
// observable behavior (ordering, hashing, encoding, strings) is derived
// from interned CONTENT, which is order-independent. That is what keeps
// same-seed runs byte-identical at any thread count.
//
// Concurrency: reads (`entry()`, child lookup walks) are lock-free —
// entries live in chunked block storage whose block pointers, published
// size and per-entry child lists are release/acquire atomics, and every
// entry is immutable after publication. Only a miss (interning a NEW path
// element) takes the single mutex.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/address.hpp"

namespace hc::core {

/// Flyweight handle of an interned subnet path. 0 is always "/root".
using SubnetRef = std::uint32_t;
inline constexpr SubnetRef kRootRef = 0;

/// Derived per-subnet pubsub topics, memoized at intern time so a gossip
/// publish never builds a string (paper §IV-C resolution runs on
/// "<topic>/resolve", checkpoint signatures on "<topic>/sigs", ...).
enum class SubnetTopic : std::uint8_t {
  kMsgs = 0,
  kConsensus = 1,
  kSigs = 2,
  kResolve = 3,
};
inline constexpr std::size_t kSubnetTopicCount = 4;

class SubnetInterner {
 public:
  struct Entry {
    SubnetRef parent = kRootRef;
    std::uint32_t depth = 0;
    /// FNV-1a fold over std::hash<Address> of each path element — the
    /// exact value the pre-interning std::hash<SubnetId> computed per
    /// probe. Content-derived, so it is stable across intern order.
    std::size_t path_hash = 0;
    /// SA address governing this subnet in its parent (invalid for root).
    /// This is the canonical interned copy: `SubnetId::actor()` returns a
    /// reference to it instead of copying 48 bytes per call.
    Address actor;
    /// Materialized path, root-to-leaf; length == depth.
    std::vector<Address> path;
    std::string str;    // "/root/f0100/f0102"
    std::string topic;  // "hc" + str
    std::array<std::string, kSubnetTopicCount> sub_topics;

   private:
    friend class SubnetInterner;
    struct ChildLink {
      Address sa;
      SubnetRef ref;
      ChildLink* next;  // immutable after publication
    };
    /// Head of this entry's child list. Appended under the interner mutex,
    /// walked lock-free (store-release pairs with load-acquire).
    std::atomic<ChildLink*> children{nullptr};
  };

  /// The one process-wide table. Function-local static: constructed on
  /// first use, destroyed at exit (leak-sanitizer clean).
  static SubnetInterner& instance();

  SubnetInterner(const SubnetInterner&) = delete;
  SubnetInterner& operator=(const SubnetInterner&) = delete;

  /// Handle of `parent`'s child governed by SA `sa`, interning it on first
  /// sight. Lock-free on the (overwhelmingly common) hit path.
  SubnetRef child_of(SubnetRef parent, const Address& sa);

  /// Lock-free entry access. `r` must come from this table.
  [[nodiscard]] const Entry& entry(SubnetRef r) const {
    const Block* b = blocks_[r >> kBlockBits].load(std::memory_order_acquire);
    return b->entries[r & (kBlockSize - 1)];
  }

  /// Distinct paths interned so far (>= 1: root). The chaos growth test
  /// asserts this stays bounded by the set of subnets a run ever names.
  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }

  /// Deterministic footprint estimate: logical sizes only (never
  /// allocator-dependent capacities), so two same-seed runs report the
  /// same number. Drained into the city-scale bench's bytes accounting.
  [[nodiscard]] std::size_t approx_bytes() const;

 private:
  SubnetInterner();
  ~SubnetInterner();

  [[nodiscard]] Entry& entry_mut(SubnetRef r) {
    Block* b = blocks_[r >> kBlockBits].load(std::memory_order_acquire);
    return b->entries[r & (kBlockSize - 1)];
  }

  static constexpr std::size_t kBlockBits = 10;
  static constexpr std::size_t kBlockSize = 1 << kBlockBits;  // entries/block
  static constexpr std::size_t kMaxBlocks = 1024;             // 2^20 entries

  struct Block {
    std::array<Entry, kBlockSize> entries;
  };

  std::mutex mutex_;  // guards inserts only
  std::atomic<std::uint32_t> size_{0};
  std::array<std::atomic<Block*>, kMaxBlocks> blocks_{};
};

}  // namespace hc::core

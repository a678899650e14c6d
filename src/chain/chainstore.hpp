// Chain store: the canonical block sequence of one subnet plus the state at
// head. Validates linkage (parent CID, height, message root, state root) on
// append, so a corrupted or equivocating block cannot silently enter the
// store.
//
// Flyweight layout (DESIGN.md §17): the genesis state is held as a shared
// immutable tree — every replica of a subnet (and every restart of one)
// points at ONE copy instead of carrying a private snapshot. Retention is
// optionally bounded: with a CapacityPolicy installed, append() prunes the
// oldest blocks once the window exceeds the cap, trading historic replay
// (state_at) and deep catch-up for a flat memory ceiling.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"
#include "chain/state.hpp"
#include "common/capacity.hpp"

namespace hc::chain {

class ChainStore {
 public:
  /// Start a chain from a genesis block + matching state. `genesis_state`
  /// must be the state the genesis block's state_root commits to; callers
  /// sharing one tree across stores must flush it ONCE before sharing
  /// (flush() mutates the commitment cache, see StateTree).
  ChainStore(Block genesis, std::shared_ptr<const StateTree> genesis_state);

  /// Convenience for single-store callers (tests, raw usage): wraps the
  /// tree into a private shared holder.
  ChainStore(Block genesis, StateTree genesis_state);

  /// Build a conventional genesis for the given initial state.
  [[nodiscard]] static Block make_genesis(const StateTree& state,
                                          std::int64_t timestamp);

  [[nodiscard]] const Block& head() const { return blocks_.back(); }
  [[nodiscard]] Epoch height() const { return head().header.height; }
  [[nodiscard]] const StateTree& state() const { return *state_; }
  /// The head state as a shared immutable tree (DESIGN.md §11/§17): it is
  /// flushed before append() publishes it and never mutated afterwards, so
  /// readers may hold it across later appends (the parent view does).
  [[nodiscard]] const std::shared_ptr<const StateTree>& state_ptr() const {
    return state_;
  }

  /// Append a block whose execution produced `new_state`, with the
  /// consensus `proof` that finalized it. Validates: parent == head CID,
  /// height == head+1, msgs_root, state_root (a cache hit when the caller
  /// already flushed `new_state`). With a bounded retention policy, prunes
  /// the oldest blocks (and their proofs) past the cap.
  Status append(Block block, StateTree new_state, Bytes proof = {});

  /// Bound the retained block window (0 fields = unbounded, the default).
  /// Catch-up and state_at need the pruned blocks, so callers must size
  /// the window beyond the worst replica lag they tolerate.
  void set_retention(common::CapacityPolicy policy);

  /// Height of the oldest retained block (0 while unbounded).
  [[nodiscard]] Epoch base_height() const { return base_height_; }

  /// nullptr when out of range or pruned by the retention policy.
  [[nodiscard]] const Block* block_at(Epoch height) const;
  [[nodiscard]] const Block* block_by_cid(const Cid& cid) const;
  /// Finality proof stored with the block at `height`; nullptr exactly
  /// when block_at(height) is.
  [[nodiscard]] const Bytes* proof_at(Epoch height) const;

  /// Reconstruct the state as of `height` by replaying from genesis
  /// (deterministic; used for historic proofs and audits). Fails when the
  /// height is out of range, replay does not reproduce the recorded state
  /// root, or the retention policy has pruned the needed history.
  [[nodiscard]] Result<StateTree> state_at(Epoch height,
                                           const class Executor& exec) const;

  /// Retained blocks, oldest first (read-only view for audits/benches).
  /// blocks()[i] is the block at height base_height()+i.
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  /// Deterministic logical footprint of this store: retained blocks plus
  /// the head state (logical sizes only). The shared genesis tree is NOT
  /// counted — it belongs to the subnet, not to any one replica.
  [[nodiscard]] std::size_t mem_bytes() const;

 private:
  void prune_();

  std::vector<Block> blocks_;  // window [base_height_, height()]
  std::vector<Bytes> proofs_;  // parallel to blocks_
  std::unordered_map<Cid, Epoch> by_cid_;
  std::shared_ptr<const StateTree> state_;
  std::shared_ptr<const StateTree> genesis_state_;
  common::CapacityPolicy retention_;
  Epoch base_height_ = 0;
  std::size_t blocks_bytes_ = 0;  // Σ mem_bytes() of retained blocks
};

}  // namespace hc::chain

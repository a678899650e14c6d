#include "chain/chainstore.hpp"

#include "chain/executor.hpp"

namespace hc::chain {

ChainStore::ChainStore(Block genesis,
                       std::shared_ptr<const StateTree> genesis_state)
    : state_(std::make_shared<const StateTree>(*genesis_state)),
      genesis_state_(std::move(genesis_state)) {
  by_cid_.emplace(genesis.cid(), 0);
  blocks_bytes_ = genesis.mem_bytes();
  blocks_.push_back(std::move(genesis));
  proofs_.emplace_back();
}

ChainStore::ChainStore(Block genesis, StateTree genesis_state)
    : ChainStore(std::move(genesis), std::make_shared<const StateTree>(
                                         std::move(genesis_state))) {}

Block ChainStore::make_genesis(const StateTree& state,
                               std::int64_t timestamp) {
  Block genesis;
  genesis.header.miner = kSystemAddr;
  genesis.header.height = 0;
  genesis.header.parent = Cid();
  genesis.header.state_root = state.flush();
  genesis.header.msgs_root = genesis.compute_msgs_root();
  genesis.header.timestamp = timestamp;
  return genesis;
}

Status ChainStore::append(Block block, StateTree new_state, Bytes proof) {
  if (block.header.parent != head().cid()) {
    return Error(Errc::kStateConflict, "block does not extend current head");
  }
  if (block.header.height != height() + 1) {
    return Error(Errc::kStateConflict,
                 "expected height " + std::to_string(height() + 1) + ", got " +
                     std::to_string(block.header.height));
  }
  if (block.header.msgs_root != block.compute_msgs_root()) {
    return Error(Errc::kInvalidArgument, "message root mismatch");
  }
  // new_state is a snapshot of the previous head state, so this flush is
  // incremental: only the leaves the block's execution touched are
  // rehashed (DESIGN.md §12) — and a cache hit when the node already
  // flushed it while building or validating the block.
  if (block.header.state_root != new_state.flush()) {
    return Error(Errc::kInvalidArgument, "state root mismatch");
  }
  by_cid_.emplace(block.cid(), block.header.height);
  blocks_bytes_ += block.mem_bytes();
  blocks_.push_back(std::move(block));
  proofs_.push_back(std::move(proof));
  state_ = std::make_shared<const StateTree>(std::move(new_state));
  prune_();
  return ok_status();
}

void ChainStore::set_retention(common::CapacityPolicy policy) {
  retention_ = policy;
  prune_();
}

void ChainStore::prune_() {
  if (!retention_.bounded()) return;
  const bool by_items = retention_.max_items != 0;
  const bool by_bytes = retention_.max_bytes != 0;
  std::size_t drop = 0;
  std::size_t bytes = blocks_bytes_;
  while (blocks_.size() - drop > 1 &&
         ((by_items && blocks_.size() - drop > retention_.max_items) ||
          (by_bytes && bytes > retention_.max_bytes))) {
    const Block& victim = blocks_[drop];
    bytes -= victim.mem_bytes();
    by_cid_.erase(victim.cid());
    ++drop;
  }
  if (drop == 0) return;
  const auto cut = static_cast<std::ptrdiff_t>(drop);
  blocks_.erase(blocks_.begin(), blocks_.begin() + cut);
  proofs_.erase(proofs_.begin(), proofs_.begin() + cut);
  blocks_bytes_ = bytes;
  base_height_ += static_cast<Epoch>(drop);
}

const Block* ChainStore::block_at(Epoch height) const {
  if (height < base_height_ || height > this->height()) {
    return nullptr;
  }
  return &blocks_[static_cast<std::size_t>(height - base_height_)];
}

Result<StateTree> ChainStore::state_at(Epoch height,
                                       const Executor& exec) const {
  if (height < 0 || height > this->height()) {
    return Error(Errc::kOutOfRange, "no block at requested height");
  }
  if (base_height_ > 0) {
    // Replay starts from genesis; once the window slid, the prefix is gone.
    return Error(Errc::kOutOfRange, "history pruned by retention policy");
  }
  StateTree tree = genesis_state_->snapshot();
  for (Epoch h = 1; h <= height; ++h) {
    (void)exec.apply_block(tree, blocks_[static_cast<std::size_t>(h)]);
  }
  if (tree.flush() != blocks_[static_cast<std::size_t>(height)]
                          .header.state_root) {
    return Error(Errc::kInternal, "replay diverged from recorded state root");
  }
  return tree;
}

const Bytes* ChainStore::proof_at(Epoch height) const {
  if (block_at(height) == nullptr) return nullptr;
  return &proofs_[static_cast<std::size_t>(height - base_height_)];
}

const Block* ChainStore::block_by_cid(const Cid& cid) const {
  auto it = by_cid_.find(cid);
  return it == by_cid_.end() ? nullptr : block_at(it->second);
}

std::size_t ChainStore::mem_bytes() const {
  return blocks_bytes_ + state_->mem_bytes() +
         by_cid_.size() * (sizeof(Cid) + sizeof(Epoch));
}

}  // namespace hc::chain

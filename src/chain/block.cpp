#include "chain/block.hpp"

namespace hc::chain {

Cid BlockHeader::cid() const { return Cid::of(CidCodec::kBlock, encode(*this)); }

Digest Block::compute_msgs_root() const {
  std::vector<Bytes> leaves;
  leaves.reserve(messages.size() + cross_messages.size());
  for (const auto& m : messages) leaves.push_back(encode(m));
  for (const auto& m : cross_messages) leaves.push_back(encode(m));
  return crypto::MerkleTree::root_of(leaves);
}

std::size_t Block::mem_bytes() const {
  std::size_t total =
      sizeof(Block) + header.ticket.size() + header.proof.size();
  for (const auto& sm : messages) {
    total += sizeof(sm) + sm.message.params.size();
  }
  for (const auto& m : cross_messages) {
    total += sizeof(m) + m.params.size();
  }
  return total;
}

}  // namespace hc::chain

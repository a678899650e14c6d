// Binary Merkle trees over SHA-256.
//
// Used for block message roots and checkpoint batch commitments. Leaves are
// domain-separated from interior nodes (0x00 / 0x01 prefixes) to prevent
// second-preimage splicing attacks. Odd layers promote the last node
// unchanged (no duplication, avoiding the CVE-2012-2459-style ambiguity).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"

namespace hc::crypto {

/// Domain-separated leaf digest (0x00-prefixed SHA-256). Exposed so callers
/// that cache per-leaf digests (the incremental state commitment) hash
/// exactly the bytes MerkleTree would.
[[nodiscard]] Digest merkle_leaf_hash(BytesView content);

/// Domain-separated interior-node digest (0x01-prefixed SHA-256).
[[nodiscard]] Digest merkle_node_hash(const Digest& left, const Digest& right);

/// An inclusion proof: sibling digests from leaf to root, with direction.
struct MerkleStep {
  Digest sibling;
  bool sibling_on_left = false;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.raw(s.sibling).boolean(s.sibling_on_left);
  }
  bool operator==(const MerkleStep&) const = default;
};
using MerkleProof = std::vector<MerkleStep>;

class MerkleTree {
 public:
  /// Build a tree over the given leaf contents (hashed internally).
  explicit MerkleTree(const std::vector<Bytes>& leaves);

  /// Root digest; the all-zero digest for an empty tree.
  [[nodiscard]] const Digest& root() const { return root_; }

  [[nodiscard]] std::size_t leaf_count() const { return leaf_count_; }

  /// Inclusion proof for leaf at `index` (must be < leaf_count()).
  [[nodiscard]] MerkleProof prove(std::size_t index) const;

  /// Verify that `leaf_content` is at some position under `root`.
  [[nodiscard]] static bool verify(const Digest& root, BytesView leaf_content,
                                   const MerkleProof& proof);

  /// Convenience: root over leaves without keeping the tree.
  [[nodiscard]] static Digest root_of(const std::vector<Bytes>& leaves);

 private:
  // levels_[0] = leaf digests, levels_.back() = {root} (absent when empty).
  std::vector<std::vector<Digest>> levels_;
  Digest root_{};
  std::size_t leaf_count_ = 0;
};

/// A persistent Merkle tree over pre-hashed leaf digests that supports
/// point updates in O(log N) node hashes. Layout (leaf/node domain
/// separation, odd-node promotion) is byte-identical to MerkleTree, so a
/// root computed here equals MerkleTree's root over the same leaf contents
/// — the foundation of the incremental state commitment (DESIGN.md §12).
///
/// Structural changes (leaf insertion/removal) are handled by re-assigning
/// the full digest vector: O(N) node hashes but zero leaf re-encodes when
/// the caller caches unchanged digests.
class IncrementalMerkleTree {
 public:
  IncrementalMerkleTree() = default;

  /// Rebuild every interior level over `leaf_digests` (already leaf-hashed
  /// via merkle_leaf_hash). O(N) node hashes.
  void assign(std::vector<Digest> leaf_digests);

  /// Replace the leaves at the given (index, digest) pairs — sorted by
  /// index, unique — and rehash only the affected root paths. O(k log N)
  /// node hashes for k changes.
  void update(const std::vector<std::pair<std::size_t, Digest>>& changes);

  /// Root digest; the all-zero digest for an empty tree. Matches
  /// MerkleTree::root_of over the same leaf contents.
  [[nodiscard]] const Digest& root() const { return root_; }

  [[nodiscard]] std::size_t leaf_count() const {
    return levels_.empty() ? 0 : levels_[0].size();
  }

  /// The current leaf-digest level (empty for an empty tree). Stable only
  /// until the next assign()/update().
  [[nodiscard]] const std::vector<Digest>& leaf_digests() const;

  /// Inclusion proof for the leaf at `index`; verifiable with
  /// MerkleTree::verify against root().
  [[nodiscard]] MerkleProof prove(std::size_t index) const;

  /// Cumulative interior-node hash count since construction; callers
  /// difference this around assign()/update() to attribute hash work.
  [[nodiscard]] std::uint64_t node_hashes() const { return node_hashes_; }

 private:
  std::vector<std::vector<Digest>> levels_;
  Digest root_{};
  std::uint64_t node_hashes_ = 0;
};

}  // namespace hc::crypto

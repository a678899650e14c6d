// The state tree: every actor's balance, nonce, code and serialized state.
//
// Deterministically committable: flush() canonically encodes the (ordered)
// actor map and returns its CID, which block headers carry as state_root.
// The commitment is incremental (DESIGN.md §12): mutators mark leaves
// dirty, per-leaf digests are cached, and a persistent
// crypto::IncrementalMerkleTree rehashes only the changed leaves and their
// root paths — a clean flush() returns the cached CID, a k-leaf change
// costs O(k log N) hashes, and the resulting roots are byte-identical to
// rebuilding the full tree from scratch.
//
// Two rollback mechanisms coexist:
//   - journal_mark()/journal_revert(): an undo log of prior entry values,
//     used by the executor for per-message and nested-send revert without
//     copying the tree;
//   - snapshot(): a copy of the actor map, kept for long-lived forks
//     (genesis templates, the head copy a block executes on). Actor state
//     is an immutable shared StateBlob, so neither a copy nor a journal
//     prior copies state bytes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <typeinfo>
#include <vector>

#include "common/address.hpp"
#include "common/cid.hpp"
#include "common/codec.hpp"
#include "common/token.hpp"
#include "crypto/merkle.hpp"

namespace hc::chain {

/// Identifies which actor logic governs an address.
using CodeId = std::uint64_t;

constexpr CodeId kCodeNone = 0;
constexpr CodeId kCodeAccount = 1;
constexpr CodeId kCodeInit = 2;
constexpr CodeId kCodeSca = 3;          // Subnet Coordinator Actor
constexpr CodeId kCodeSubnetActor = 4;  // user-deployed Subnet Actor (SA)
constexpr CodeId kCodeKvApp = 10;       // demo application actor

/// Well-known addresses (mirroring Filecoin's reserved actor ids).
inline const Address kSystemAddr = Address::id(0);   // protocol itself
inline const Address kInitAddr = Address::id(1);     // actor factory
inline const Address kScaAddr = Address::id(2);      // subnet coordinator
inline const Address kRewardAddr = Address::id(98);  // fee sink for miners
inline const Address kBurnAddr = Address::id(99);    // burnt-funds sink
/// Slashed collateral is quarantined here, not sent to kBurnAddr: burns in
/// kBurnAddr are mirrored by a release on the parent edge (bottom-up value
/// transfer), while a slash destroys value with no parent-side movement.
/// Keeping the dead stake on-chain preserves the parent's exact
/// circulating-supply accounting for this subnet's edge.
inline const Address kSlashPotAddr = Address::id(97);

/// An actor's serialized state: immutable bytes shared by every tree copy,
/// journal prior and Runtime::get_state() result that holds it, so none of
/// those copies the bytes (DESIGN.md §12). A blob may also carry a memo —
/// the decoded object its bytes encode — attached only when the blob is
/// constructed (actors::save_state hands over the state it just encoded).
/// Nothing mutates a blob after construction, so a published head tree's
/// blobs and memos are safe to read from any lane.
class StateBlob {
 public:
  /// Empty state (an actor on first touch).
  StateBlob() = default;
  /// Adopt bytes with no memo (constructor params, wire bytes, test
  /// fixtures). Implicit so that `entry.state = encode(x)` reads naturally.
  StateBlob(Bytes bytes)  // NOLINT
      : rep_(bytes.empty() ? nullptr
                           : std::make_shared<const Rep>(std::move(bytes))) {}

  /// Bytes plus the object they encode. The caller guarantees that
  /// `decoded` is exactly what decoding `bytes` yields.
  template <typename T>
  [[nodiscard]] static StateBlob with_memo(Bytes bytes, T decoded) {
    StateBlob b;
    b.rep_ = std::make_shared<const MemoRep<T>>(std::move(bytes),
                                                std::move(decoded));
    return b;
  }

  [[nodiscard]] const Bytes& bytes() const {
    static const Bytes kEmpty;
    return rep_ == nullptr ? kEmpty : rep_->bytes;
  }
  [[nodiscard]] BytesView view() const { return bytes(); }
  operator BytesView() const { return bytes(); }  // NOLINT: encodes as bytes
  [[nodiscard]] std::size_t size() const { return bytes().size(); }
  [[nodiscard]] bool empty() const { return bytes().empty(); }

  /// The decoded object attached at construction, when it is a T; null
  /// otherwise. Shares ownership with the blob.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const T> memo() const {
    if (rep_ == nullptr || typeid(*rep_) != typeid(MemoRep<T>)) return nullptr;
    const auto* rep = static_cast<const MemoRep<T>*>(rep_.get());
    return std::shared_ptr<const T>(rep_, &rep->value);
  }

  /// True when both hold the same shared bytes (not merely equal ones).
  [[nodiscard]] bool shares(const StateBlob& other) const {
    return rep_ == other.rep_;
  }

  /// Equal bytes; the memo never takes part.
  bool operator==(const StateBlob& other) const {
    return rep_ == other.rep_ || bytes() == other.bytes();
  }

 private:
  struct Rep {
    explicit Rep(Bytes b) : bytes(std::move(b)) {}
    virtual ~Rep() = default;
    const Bytes bytes;
  };
  template <typename T>
  struct MemoRep final : Rep {
    MemoRep(Bytes b, T v) : Rep(std::move(b)), value(std::move(v)) {}
    const T value;
  };

  std::shared_ptr<const Rep> rep_;  // null: empty bytes, no memo
};

struct ActorEntry {
  CodeId code = kCodeNone;
  TokenAmount balance;
  std::uint64_t nonce = 0;  // meaningful for account actors
  StateBlob state;          // actor-specific serialized state

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.varint(s.code).obj(s.balance).varint(s.nonce).bytes(s.state);
  }
  bool operator==(const ActorEntry&) const = default;
};

class StateTree {
 public:
  StateTree() = default;
  /// Copies logical state AND the commitment cache (leaf order, digest
  /// levels, cached root), so a copy of a flushed tree flushes
  /// incrementally. The journal and the commit stats start fresh: undo
  /// info and counters belong to one instance's mutation history.
  StateTree(const StateTree& other);
  StateTree& operator=(const StateTree& other);
  StateTree(StateTree&&) = default;
  StateTree& operator=(StateTree&&) = default;

  /// Look up an actor; nullptr when absent. The pointer is invalidated by
  /// any mutation of the tree.
  [[nodiscard]] const ActorEntry* get(const Address& addr) const;

  /// True when an actor exists at `addr`.
  [[nodiscard]] bool has(const Address& addr) const { return get(addr) != nullptr; }

  /// Create or overwrite an actor entry.
  void set(const Address& addr, ActorEntry entry);

  /// Mutable access, creating a default (empty, kCodeNone) entry if absent.
  /// The returned reference is stable across other mutations (map nodes do
  /// not move) but must not be written through after the next flush(): the
  /// entry is assumed clean again once flushed.
  [[nodiscard]] ActorEntry& get_or_create(const Address& addr);

  /// Delete an actor (used when killing subnets' SAs is modeled).
  void remove(const Address& addr);

  /// Total token supply held across all actors (conservation checks).
  /// Maintained as a running total: O(dirty) per call, not O(N).
  [[nodiscard]] TokenAmount total_balance() const;

  /// Canonical commitment of the whole tree: the Merkle root over the
  /// per-actor leaves (address order). Merkle-based so that individual
  /// actor entries can be proven against a committed state root — the
  /// foundation of §III-C fund recovery from dead subnets.
  ///
  /// Incremental: with no mutations since the last flush this returns the
  /// cached CID; with k mutated leaves it re-encodes/rehashes those k
  /// leaves plus their O(k log N) root paths; only membership changes
  /// (insert/remove) rebuild the interior levels (O(N) node hashes, still
  /// zero re-encodes for clean leaves). Logically const, but updates the
  /// internal cache — call only from the thread owning the tree, never on
  /// a published read-only view shared across lanes (DESIGN.md §11/§12).
  [[nodiscard]] Cid flush() const;

  /// The canonical leaf bytes for one actor (what proofs verify against).
  [[nodiscard]] static Bytes leaf_bytes(const Address& addr,
                                        const ActorEntry& entry);

  /// Inclusion proof for the actor at `addr` against flush(). Fails with
  /// kNotFound when the actor does not exist. Reuses the cached
  /// incremental tree (flushing first if needed), so proving after a clean
  /// flush costs O(log N) — no leaf re-assembly.
  [[nodiscard]] Result<crypto::MerkleProof> prove(const Address& addr) const;

  /// Verify that (addr, entry) is part of the state committed by `root`.
  [[nodiscard]] static bool verify_entry(const Cid& root, const Address& addr,
                                         const ActorEntry& entry,
                                         const crypto::MerkleProof& proof);

  // ------------------------------------------------------------- journal
  // Undo log for revert-on-failure. Every mutator records the prior entry
  // value; reverting to a mark replays the log backwards. Marks nest (the
  // executor takes one per message and one per internal send).

  using JournalMark = std::size_t;

  /// Current journal position; pass to journal_revert() to roll back to it.
  [[nodiscard]] JournalMark journal_mark() const { return journal_.size(); }

  /// Undo every mutation recorded after `mark`, newest first.
  void journal_revert(JournalMark mark);

  /// Drop all undo information (outermost commit point). Marks taken
  /// before a reset are invalidated.
  void journal_reset() { journal_.clear(); }

  [[nodiscard]] std::size_t journal_depth() const { return journal_.size(); }

  /// Copy for a long-lived fork: copies the actor map and shares every
  /// entry's state blob.
  [[nodiscard]] StateTree snapshot() const { return *this; }

  [[nodiscard]] std::size_t actor_count() const { return actors_.size(); }

  /// Leaves whose content changed since the last flush (diagnostics).
  [[nodiscard]] std::size_t dirty_count() const { return dirty_.size(); }

  /// Deterministic logical memory footprint: per-actor fixed overhead plus
  /// dynamic payloads (serialized actor state, journal priors) plus the
  /// commitment cache's dominant terms. Logical sizes only — never
  /// allocator capacities — so same-seed runs report the same number
  /// (city-scale accounting, DESIGN.md §17).
  [[nodiscard]] std::size_t mem_bytes() const;

  /// Commitment-cost accounting since this instance was constructed or
  /// copied (copies start at zero). Scraped into the obs counters
  /// state_leaf_rehashes_total / state_flush_cache_hits_total by the node.
  struct CommitStats {
    std::uint64_t leaf_rehashes = 0;     // leaf encodes + leaf hashes
    std::uint64_t node_hashes = 0;       // interior-node hashes
    std::uint64_t flushes = 0;           // flushes that recomputed
    std::uint64_t flush_cache_hits = 0;  // flushes served from cache
    std::uint64_t journal_entries = 0;   // prior values recorded
    std::uint64_t journal_reverts = 0;   // rollbacks replayed
  };
  [[nodiscard]] const CommitStats& commit_stats() const { return stats_; }

  /// Iterate in canonical (address) order.
  [[nodiscard]] auto begin() const { return actors_.begin(); }
  [[nodiscard]] auto end() const { return actors_.end(); }

  void encode_to(Encoder& e) const;
  [[nodiscard]] static Result<StateTree> decode_from(Decoder& d);

 private:
  static constexpr std::size_t kMaxActors = std::size_t{1} << 22;

  struct JournalEntry {
    Address addr;
    std::optional<ActorEntry> prior;  // nullopt: entry did not exist
  };

  /// Record `existing` (pre-mutation value, nullptr when absent) in the
  /// journal and mark the leaf dirty, moving its balance out of the clean
  /// running total on first touch.
  void note_mutation(const Address& addr, const ActorEntry* existing);
  /// Dirty/total bookkeeping shared with journal restores (no recording).
  void mark_dirty(const Address& addr, const ActorEntry* existing);
  /// Undo one journal entry (bypasses the journal itself).
  void restore(const Address& addr, std::optional<ActorEntry> prior);

  /// Re-merge the leaf order after membership changes, reusing cached
  /// digests for clean leaves, then rebuild interior levels.
  void rebuild_structure() const;
  /// Rehash only content-dirty leaves and their root paths.
  void update_dirty_leaves() const;

  std::map<Address, ActorEntry> actors_;
  std::vector<JournalEntry> journal_;

  // Commitment cache. Mutable: flush()/prove() are logically const.
  // clean_total_ + Σ balance(dirty_) == Σ balance(all) at all times.
  mutable std::vector<Address> order_;  // leaf order at last (re)build
  mutable crypto::IncrementalMerkleTree tree_;
  mutable std::set<Address> dirty_;  // content changed since last flush
  mutable bool structure_dirty_ = false;  // membership changed
  mutable bool root_valid_ = false;
  mutable Cid cached_root_;
  mutable TokenAmount clean_total_;
  mutable CommitStats stats_;
};

}  // namespace hc::chain

#include "chain/state.hpp"

#include <algorithm>
#include <cassert>

#include "obs/profile.hpp"

namespace hc::chain {

StateTree::StateTree(const StateTree& other)
    : actors_(other.actors_),
      order_(other.order_),
      tree_(other.tree_),
      dirty_(other.dirty_),
      structure_dirty_(other.structure_dirty_),
      root_valid_(other.root_valid_),
      cached_root_(other.cached_root_),
      clean_total_(other.clean_total_) {
  // journal_ and stats_ intentionally start fresh (see header).
}

StateTree& StateTree::operator=(const StateTree& other) {
  if (this != &other) {
    StateTree tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

const ActorEntry* StateTree::get(const Address& addr) const {
  auto it = actors_.find(addr);
  return it == actors_.end() ? nullptr : &it->second;
}

void StateTree::mark_dirty(const Address& addr, const ActorEntry* existing) {
  root_valid_ = false;
  if (dirty_.insert(addr).second && existing != nullptr) {
    clean_total_ -= existing->balance;
  }
}

void StateTree::note_mutation(const Address& addr,
                              const ActorEntry* existing) {
  ++stats_.journal_entries;
  journal_.push_back({addr, existing == nullptr
                                ? std::nullopt
                                : std::optional<ActorEntry>(*existing)});
  mark_dirty(addr, existing);
}

void StateTree::set(const Address& addr, ActorEntry entry) {
  auto it = actors_.find(addr);
  if (it == actors_.end()) {
    note_mutation(addr, nullptr);
    structure_dirty_ = true;
    actors_.emplace(addr, std::move(entry));
  } else {
    note_mutation(addr, &it->second);
    it->second = std::move(entry);
  }
}

ActorEntry& StateTree::get_or_create(const Address& addr) {
  auto it = actors_.find(addr);
  if (it == actors_.end()) {
    note_mutation(addr, nullptr);
    structure_dirty_ = true;
    it = actors_.emplace(addr, ActorEntry{}).first;
  } else {
    // Conservatively treated as a mutation: the caller holds a mutable
    // reference and usually writes through it.
    note_mutation(addr, &it->second);
  }
  return it->second;
}

void StateTree::remove(const Address& addr) {
  auto it = actors_.find(addr);
  if (it == actors_.end()) return;
  note_mutation(addr, &it->second);
  structure_dirty_ = true;
  actors_.erase(it);
}

void StateTree::restore(const Address& addr, std::optional<ActorEntry> prior) {
  auto it = actors_.find(addr);
  mark_dirty(addr, it == actors_.end() ? nullptr : &it->second);
  if (prior.has_value()) {
    if (it == actors_.end()) {
      structure_dirty_ = true;
      actors_.emplace(addr, std::move(*prior));
    } else {
      it->second = std::move(*prior);
    }
  } else if (it != actors_.end()) {
    structure_dirty_ = true;
    actors_.erase(it);
  }
}

void StateTree::journal_revert(JournalMark mark) {
  assert(mark <= journal_.size() && "revert past a journal reset");
  if (mark < journal_.size()) ++stats_.journal_reverts;
  while (journal_.size() > mark) {
    JournalEntry e = std::move(journal_.back());
    journal_.pop_back();
    restore(e.addr, std::move(e.prior));
  }
}

TokenAmount StateTree::total_balance() const {
  // Invariant: clean_total_ sums every non-dirty entry; dirty entries are
  // read live (their balances may have changed through get_or_create refs).
  TokenAmount total = clean_total_;
  for (const auto& addr : dirty_) {
    if (auto it = actors_.find(addr); it != actors_.end()) {
      total += it->second.balance;
    }
  }
  return total;
}

void StateTree::encode_to(Encoder& e) const { e.map(actors_, kMaxActors); }

Result<StateTree> StateTree::decode_from(Decoder& d) {
  StateTree t;
  FieldReader r(d);
  r.map(t.actors_, kMaxActors);
  HC_TRY_STATUS(r.status());
  for (const auto& [addr, entry] : t.actors_) {
    t.clean_total_ += entry.balance;  // decoded entries start clean
  }
  t.structure_dirty_ = !t.actors_.empty();  // no cached tree yet
  return t;
}

Bytes StateTree::leaf_bytes(const Address& addr, const ActorEntry& entry) {
  Encoder e;
  e.obj(addr).obj(entry);
  return std::move(e).take();
}

void StateTree::rebuild_structure() const {
  // Merge the current actor set against the cached leaf order: clean
  // surviving leaves keep their cached digest, dirty/new ones are
  // re-encoded and rehashed. O(N) node hashes, O(dirty+new) leaf work.
  std::vector<Address> new_order;
  std::vector<Digest> new_digests;
  new_order.reserve(actors_.size());
  new_digests.reserve(actors_.size());
  const auto& old_digests = tree_.leaf_digests();
  std::size_t oi = 0;
  for (const auto& [addr, entry] : actors_) {
    while (oi < order_.size() && order_[oi] < addr) ++oi;  // removed leaves
    const bool cached = oi < order_.size() && order_[oi] == addr;
    if (cached && !dirty_.contains(addr)) {
      new_digests.push_back(old_digests[oi]);
    } else {
      new_digests.push_back(crypto::merkle_leaf_hash(leaf_bytes(addr, entry)));
      ++stats_.leaf_rehashes;
    }
    if (cached) ++oi;
    new_order.push_back(addr);
  }
  const std::uint64_t before = tree_.node_hashes();
  tree_.assign(std::move(new_digests));
  stats_.node_hashes += tree_.node_hashes() - before;
  order_ = std::move(new_order);
}

void StateTree::update_dirty_leaves() const {
  if (dirty_.empty()) return;
  std::vector<std::pair<std::size_t, Digest>> changes;
  changes.reserve(dirty_.size());
  for (const auto& addr : dirty_) {
    const auto it = actors_.find(addr);
    assert(it != actors_.end() && "content-dirty leaf must exist");
    const auto pos = std::lower_bound(order_.begin(), order_.end(), addr);
    assert(pos != order_.end() && *pos == addr && "leaf missing from order");
    changes.emplace_back(
        static_cast<std::size_t>(pos - order_.begin()),
        crypto::merkle_leaf_hash(leaf_bytes(addr, it->second)));
    ++stats_.leaf_rehashes;
  }
  // dirty_ iterates in address order == leaf order, so `changes` is sorted.
  const std::uint64_t before = tree_.node_hashes();
  tree_.update(changes);
  stats_.node_hashes += tree_.node_hashes() - before;
}

Cid StateTree::flush() const {
  if (root_valid_) {
    ++stats_.flush_cache_hits;
    return cached_root_;
  }
  // Cache hits above stay unprofiled (they are a compare + return); only
  // real re-hash work is attributed to state/flush.
  static const obs::PhaseId flush_phase =
      obs::Profiler::instance().phase("state/flush");
  obs::ProfileScope prof(flush_phase);
  if (structure_dirty_) {
    rebuild_structure();
  } else {
    update_dirty_leaves();
  }
  // Reconcile the running supply total: dirty balances are final now.
  for (const auto& addr : dirty_) {
    if (auto it = actors_.find(addr); it != actors_.end()) {
      clean_total_ += it->second.balance;
    }
  }
  dirty_.clear();
  structure_dirty_ = false;
  cached_root_ = Cid(CidCodec::kStateRoot, tree_.root());
  root_valid_ = true;
  ++stats_.flushes;
  return cached_root_;
}

Result<crypto::MerkleProof> StateTree::prove(const Address& addr) const {
  if (!actors_.contains(addr)) {
    return Error(Errc::kNotFound, "no actor at " + addr.to_string());
  }
  (void)flush();  // bring the cached tree up to date (free when clean)
  const auto pos = std::lower_bound(order_.begin(), order_.end(), addr);
  assert(pos != order_.end() && *pos == addr);
  return tree_.prove(static_cast<std::size_t>(pos - order_.begin()));
}

std::size_t StateTree::mem_bytes() const {
  std::size_t total = sizeof(StateTree);
  for (const auto& [addr, entry] : actors_) {
    total += sizeof(addr) + sizeof(entry) + entry.state.size();
  }
  for (const auto& j : journal_) {
    total += sizeof(j) + (j.prior ? j.prior->state.size() : 0);
  }
  total += order_.size() * sizeof(Address);
  // The incremental tree holds one digest per node over ~2N nodes.
  total += 2 * order_.size() * sizeof(Digest);
  total += dirty_.size() * sizeof(Address);
  return total;
}

bool StateTree::verify_entry(const Cid& root, const Address& addr,
                             const ActorEntry& entry,
                             const crypto::MerkleProof& proof) {
  if (root.codec() != CidCodec::kStateRoot) return false;
  return crypto::MerkleTree::verify(root.digest(), leaf_bytes(addr, entry),
                                    proof);
}

}  // namespace hc::chain

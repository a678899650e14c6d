#include "core/intern.hpp"

#include <cassert>
#include <stdexcept>

namespace hc::core {

SubnetInterner& SubnetInterner::instance() {
  static SubnetInterner interner;
  return interner;
}

SubnetInterner::SubnetInterner() {
  // Entry 0 is always "/root": the empty path, hashed to the FNV offset
  // basis (the value the path-walking hash produced for an empty path).
  auto* block = new Block();
  Entry& root = block->entries[0];
  root.parent = kRootRef;
  root.depth = 0;
  root.path_hash = 0xcbf29ce484222325ull;
  root.str = "/root";
  root.topic = "hc/root";
  root.sub_topics = {root.topic + "/msgs", root.topic + "/consensus",
                     root.topic + "/sigs", root.topic + "/resolve"};
  blocks_[0].store(block, std::memory_order_release);
  size_.store(1, std::memory_order_release);
}

SubnetInterner::~SubnetInterner() {
  const std::uint32_t n = size_.load(std::memory_order_acquire);
  for (std::uint32_t r = 0; r < n; ++r) {
    Block* b = blocks_[r >> kBlockBits].load(std::memory_order_acquire);
    Entry::ChildLink* link =
        b->entries[r & (kBlockSize - 1)].children.load(
            std::memory_order_acquire);
    while (link != nullptr) {
      Entry::ChildLink* next = link->next;
      delete link;
      link = next;
    }
  }
  for (auto& slot : blocks_) {
    delete slot.load(std::memory_order_acquire);
  }
}

SubnetRef SubnetInterner::child_of(SubnetRef parent, const Address& sa) {
  assert(sa.valid() && "child subnet requires a valid SA address");
  Entry& p = entry_mut(parent);
  // Fast path: the child is already interned. The list is append-only and
  // links are immutable once published, so the walk needs no lock.
  for (const Entry::ChildLink* l =
           p.children.load(std::memory_order_acquire);
       l != nullptr; l = l->next) {
    if (l->sa == sa) return l->ref;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  // Re-check: another thread may have interned it since the lock-free scan.
  for (const Entry::ChildLink* l =
           p.children.load(std::memory_order_relaxed);
       l != nullptr; l = l->next) {
    if (l->sa == sa) return l->ref;
  }

  const std::uint32_t ref = size_.load(std::memory_order_relaxed);
  if (ref >= kBlockSize * kMaxBlocks) {
    throw std::length_error("subnet intern table full");
  }
  Block* block = blocks_[ref >> kBlockBits].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new Block();
    blocks_[ref >> kBlockBits].store(block, std::memory_order_release);
  }
  Entry& e = block->entries[ref & (kBlockSize - 1)];
  e.parent = parent;
  e.depth = p.depth + 1;
  e.actor = sa;
  e.path = p.path;
  e.path.push_back(sa);
  // Incremental FNV-1a step: folding one more element onto the parent's
  // fold reproduces the full-path walk exactly.
  e.path_hash =
      (p.path_hash ^ std::hash<Address>{}(sa)) * 0x100000001b3ull;
  e.str = p.str + "/" + sa.to_string();
  e.topic = "hc" + e.str;
  e.sub_topics = {e.topic + "/msgs", e.topic + "/consensus",
                  e.topic + "/sigs", e.topic + "/resolve"};
  // Publish: size first (entry fields are complete), then the child link
  // that makes the ref discoverable by lock-free readers.
  size_.store(ref + 1, std::memory_order_release);
  auto* link = new Entry::ChildLink{
      sa, ref, p.children.load(std::memory_order_relaxed)};
  p.children.store(link, std::memory_order_release);
  return ref;
}

std::size_t SubnetInterner::approx_bytes() const {
  const std::uint32_t n = size_.load(std::memory_order_acquire);
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    const Entry& e = entry(r);
    total += sizeof(Entry) + e.path.size() * sizeof(Address) + e.str.size() +
             e.topic.size() + sizeof(Entry::ChildLink);
    for (const auto& t : e.sub_topics) total += t.size();
  }
  return total;
}

}  // namespace hc::core

#include "storage/store.hpp"

namespace hc::storage {

void ContentStore::set_policy(common::CapacityPolicy policy) {
  policy_ = policy;
  make_room(0, 0);
  shed_.observe(blobs_.size(), total_bytes_);
}

void ContentStore::make_room(std::size_t incoming_bytes,
                             std::size_t incoming_items) {
  if (!policy_.bounded()) return;
  while (!order_.empty() &&
         ((policy_.max_items > 0 &&
           blobs_.size() + incoming_items > policy_.max_items) ||
          (policy_.max_bytes > 0 &&
           total_bytes_ + incoming_bytes > policy_.max_bytes))) {
    const Cid victim = order_.front();
    order_.pop_front();
    auto it = blobs_.find(victim);
    if (it == blobs_.end()) continue;
    total_bytes_ -= it->second->size();
    blobs_.erase(it);
    shed_.count(common::ShedReason::kEvicted);
  }
}

void ContentStore::record(const Cid& cid, std::size_t bytes) {
  order_.push_back(cid);
  total_bytes_ += bytes;
  shed_.observe(blobs_.size(), total_bytes_);
}

Cid ContentStore::put(CidCodec codec, Bytes content) {
  const Cid cid = Cid::of(codec, content);
  if (blobs_.contains(cid)) return cid;
  const std::size_t bytes = content.size();
  make_room(bytes, 1);
  if (policy_.max_bytes > 0 && bytes > policy_.max_bytes) {
    // A single blob larger than the whole cache can never fit; the caller
    // still gets the CID (content stays re-fetchable via resolution).
    shed_.count(common::ShedReason::kByteCap);
    return cid;
  }
  blobs_.emplace(cid, std::make_shared<const Bytes>(std::move(content)));
  record(cid, bytes);
  return cid;
}

Status ContentStore::put_verified(const Cid& expected, Bytes content) {
  return put_verified(expected,
                      std::make_shared<const Bytes>(std::move(content)));
}

Status ContentStore::put_verified(const Cid& expected,
                                  std::shared_ptr<const Bytes> content) {
  const Cid actual = Cid::of(expected.codec(), *content);
  if (actual != expected) {
    return Error(Errc::kInvalidArgument,
                 "content does not match CID " + expected.to_string());
  }
  if (blobs_.contains(actual)) return ok_status();
  const std::size_t bytes = content->size();
  make_room(bytes, 1);
  if (policy_.max_bytes > 0 && bytes > policy_.max_bytes) {
    shed_.count(common::ShedReason::kByteCap);
    return ok_status();  // verified, just not cacheable at this cap
  }
  blobs_.emplace(actual, std::move(content));
  record(actual, bytes);
  return ok_status();
}

bool ContentStore::has(const Cid& cid) const { return blobs_.contains(cid); }

std::optional<Bytes> ContentStore::get(const Cid& cid) const {
  auto it = blobs_.find(cid);
  if (it == blobs_.end()) return std::nullopt;
  return *it->second;
}

std::shared_ptr<const Bytes> ContentStore::get_shared(const Cid& cid) const {
  auto it = blobs_.find(cid);
  if (it == blobs_.end()) return nullptr;
  return it->second;
}

}  // namespace hc::storage

// Content-resolution protocol messages (paper §IV-C, Fig. 4).
//
// Checkpoints carry only the CIDs of cross-msg batches; the raw messages
// are resolved over per-subnet pubsub topics:
//   - push:    proactively publish a batch into the destination subnet
//   - pull:    ask the source subnet for the batch behind a CID
//   - resolve: answer a pull by publishing the batch into the requester
// Content addressing makes responses self-authenticating: receivers verify
// hash(content) == cid before accepting (storage::ContentStore::put_verified).
#pragma once

#include "common/cid.hpp"
#include "common/codec.hpp"
#include "core/subnet_id.hpp"

namespace hc::runtime {

enum class ResolutionKind : std::uint8_t {
  kPush = 0,
  kPull = 1,
  kResolve = 2,
  kLast = kResolve,
};

struct ResolutionMsg {
  ResolutionKind kind = ResolutionKind::kPush;
  Cid cid;
  Bytes content;            // batch bytes (push/resolve); empty for pull
  core::SubnetId reply_to;  // pull only: where to publish the resolve

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.enumeration(s.kind).obj(s.cid).bytes(s.content).obj(s.reply_to);
  }
};

/// Topic naming scheme shared by all nodes. Every name is interned with
/// the subnet id (DESIGN.md §17), so publishes and per-delivery dispatch
/// never build a string.
struct Topics {
  [[nodiscard]] static const std::string& msgs(const core::SubnetId& id) {
    return id.topic(core::SubnetTopic::kMsgs);
  }
  [[nodiscard]] static const std::string& consensus(
      const core::SubnetId& id) {
    return id.topic(core::SubnetTopic::kConsensus);
  }
  [[nodiscard]] static const std::string& signatures(
      const core::SubnetId& id) {
    return id.topic(core::SubnetTopic::kSigs);
  }
  [[nodiscard]] static const std::string& resolve(const core::SubnetId& id) {
    return id.topic(core::SubnetTopic::kResolve);
  }
};

}  // namespace hc::runtime

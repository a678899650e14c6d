#include "core/crossmsg.hpp"

namespace hc::core {

CrossMsgKind CrossMsg::kind() const {
  if (from_subnet.is_prefix_of(to_subnet)) return CrossMsgKind::kTopDown;
  if (to_subnet.is_prefix_of(from_subnet)) return CrossMsgKind::kBottomUp;
  return CrossMsgKind::kPath;
}

Cid CrossMsg::cid() const {
  return Cid::of(CidCodec::kCrossMsgs, encode(*this));
}

TokenAmount CrossMsgBatch::total_value() const {
  TokenAmount total;
  for (const auto& m : msgs) total += m.msg.value;
  return total;
}

}  // namespace hc::core

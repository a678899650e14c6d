// Checks that actor-state memos agree with the bytes they ride with: every
// blob carrying a decoded ScaState/SaState/KvState must hold exactly what a
// fresh decode of its bytes yields, and re-encode to those bytes.
#pragma once

#include <gtest/gtest.h>

#include "actors/basic.hpp"
#include "actors/sa_state.hpp"
#include "actors/sca_state.hpp"
#include "chain/state.hpp"

namespace hc::testing {

/// Checks every memo of type S in `tree`; returns how many it checked.
template <typename S>
std::size_t check_memos_of(const chain::StateTree& tree) {
  std::size_t checked = 0;
  for (const auto& [addr, entry] : tree) {
    const auto memo = entry.state.template memo<S>();
    if (memo == nullptr) continue;
    auto fresh = decode<S>(entry.state.view());
    EXPECT_TRUE(fresh.ok()) << addr.to_string();
    if (!fresh.ok()) continue;
    EXPECT_EQ(fresh.value(), *memo) << addr.to_string();
    EXPECT_EQ(encode(*memo), entry.state.bytes()) << addr.to_string();
    ++checked;
  }
  return checked;
}

/// Checks every SCA, SA and KV memo in `tree`; returns how many it checked.
inline std::size_t check_memos(const chain::StateTree& tree) {
  return check_memos_of<actors::ScaState>(tree) +
         check_memos_of<actors::SaState>(tree) +
         check_memos_of<actors::KvState>(tree);
}

}  // namespace hc::testing

// Shared helpers for actor implementations.
//
// Actor state travels as a chain::StateBlob. save_state() attaches the state
// it just encoded to the new blob as its memo, and load_state() copies that
// memo instead of decoding the bytes again; only blobs built from raw bytes
// (genesis fixtures, constructor params) are decoded (DESIGN.md §12).
#pragma once

#include <cassert>
#include <memory>

#include "chain/actor.hpp"
#include "common/codec.hpp"

namespace hc::actors {

/// A blob holding `state`'s encoding, with `state` itself as the memo.
template <typename S>
[[nodiscard]] chain::StateBlob state_blob(S state) {
  Bytes bytes = encode(state);
  return chain::StateBlob::with_memo(std::move(bytes), std::move(state));
}

/// The state a blob holds: its memo when it carries an S, else a fresh
/// decode (S{} for empty bytes). Null when the bytes do not decode as S.
template <typename S>
[[nodiscard]] std::shared_ptr<const S> state_of(const chain::StateBlob& blob) {
  if (auto memo = blob.memo<S>()) return memo;
  if (blob.empty()) return std::make_shared<const S>();
  auto decoded = decode<S>(blob.view());
  if (!decoded) return nullptr;
  return std::make_shared<const S>(std::move(decoded).value());
}

/// Load an actor's state: a copy of the blob's memo when it has one,
/// otherwise a decode; default-constructs on first touch (empty state).
template <typename S>
[[nodiscard]] Result<S> load_state(chain::Runtime& rt) {
  HC_TRY(blob, rt.get_state());
  if (const auto memo = blob.template memo<S>()) {
    // The memo must be exactly what the bytes decode to; Debug builds
    // (the sanitizer stage) check every hit.
    assert(decode<S>(blob.view()).value() == *memo);
    return *memo;
  }
  if (blob.empty()) return S{};
  return decode<S>(blob.view());
}

/// Encode and persist an actor's state, keeping `state` as the new blob's
/// memo. Pass an rvalue when the caller is done with the state.
template <typename S>
[[nodiscard]] Status save_state(chain::Runtime& rt, S state) {
  return rt.set_state(state_blob(std::move(state)));
}

}  // namespace hc::actors

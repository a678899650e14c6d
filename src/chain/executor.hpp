// Message executor: the VM.
//
// Applies messages to a StateTree with gas metering, nonce/funds checks,
// revert-on-failure semantics and synchronous internal sends. Reverts —
// both per-message and per-nested-send — replay the tree's undo journal
// backwards instead of restoring a deep-copied snapshot, so a failed
// message costs O(entries it touched), not O(all actors). Cross-net
// messages enter through apply_implicit(): they carry no signature, pay no
// fee, and — uniquely — may *mint* when sent from the system address, which
// is how top-down funds materialize inside a child subnet (paper §IV-A:
// "flowing messages trigger the minting of new funds in destination
// subnets").
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chain/actor.hpp"
#include "chain/block.hpp"
#include "chain/gas.hpp"
#include "chain/message.hpp"
#include "chain/receipt.hpp"
#include "chain/state.hpp"

namespace hc::chain {

/// Per-block execution context.
struct ExecutionContext {
  Epoch height = 0;
  Address miner;
  std::int64_t timestamp = 0;
};

class Executor {
 public:
  Executor(const ActorRegistry& registry, GasSchedule schedule)
      : registry_(registry), schedule_(schedule) {}

  /// Apply a user-signed message: signature, nonce and fee enforcement.
  Receipt apply(StateTree& tree, const SignedMessage& sm,
                const ExecutionContext& ctx) const;

  /// Same, with the signature outcome precomputed (verify_block resolves a
  /// whole block's signatures before executing). Semantics are identical to
  /// apply(): the intrinsic-gas check still precedes the signature check.
  Receipt apply(StateTree& tree, const SignedMessage& sm,
                const ExecutionContext& ctx, bool sig_valid) const;

  /// Apply a protocol-injected message (cross-msg / reward). No signature,
  /// no nonce, no fee; minting allowed from kSystemAddr.
  Receipt apply_implicit(StateTree& tree, const Message& msg,
                         const ExecutionContext& ctx) const;

  /// Resolve every user signature of a block: entry i is 1 when
  /// messages[i] carries a valid signature by the key its sender address
  /// names. Each signature goes through the SigCache (crypto::verify_cached),
  /// so real Schnorr math runs only for triples not seen before.
  [[nodiscard]] std::vector<char> verify_block(const Block& block) const;

  /// Apply all messages of a block in order (cross-msgs first, mirroring
  /// their protocol-assigned total order; then user messages), taking the
  /// signature outcomes from verify_block(). Returns one receipt per
  /// message in that order.
  std::vector<Receipt> apply_block(StateTree& tree, const Block& block,
                                   const std::vector<char>& sig_ok) const;

  /// Verify, then apply (historic replay and tests).
  std::vector<Receipt> apply_block(StateTree& tree, const Block& block) const;

  [[nodiscard]] const GasSchedule& schedule() const { return schedule_; }

  /// Signing-payload bytes verify_block encoded since the last call; the
  /// owning node drains this into obs at deterministic points.
  [[nodiscard]] std::uint64_t take_payload_bytes() const {
    return std::exchange(payload_bytes_, 0);
  }

  /// Internal invocation path shared by top-level apply and nested sends.
  /// Exposed for the Runtime implementation; not part of the public API.
  Result<Bytes> invoke_inner(StateTree& tree, const Message& msg,
                             const ExecutionContext& ctx, GasMeter& meter,
                             const Address& origin,
                             std::vector<ActorEvent>& events, int depth) const;

 private:
  /// Shared invocation path once envelope checks passed.
  Receipt invoke_message(StateTree& tree, const Message& msg,
                         const ExecutionContext& ctx, GasMeter& meter,
                         bool implicit) const;

  const ActorRegistry& registry_;
  GasSchedule schedule_;
  // Mutable: verify_block is logically const (the VM has no state of its
  // own) but tallies what it encodes. Executors are lane-local, never
  // shared across threads.
  mutable std::uint64_t payload_bytes_ = 0;
};

}  // namespace hc::chain

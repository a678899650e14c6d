// Execution receipts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "chain/gas.hpp"

namespace hc::chain {

/// Message execution outcome. Values are stable (serialized in receipts).
enum class ExitCode : std::uint8_t {
  kOk = 0,
  kSysInsufficientFunds = 1,
  kSysInvalidNonce = 2,
  kSysInvalidMethod = 3,
  kSysInvalidReceiver = 4,
  kSysOutOfGas = 5,
  kSysInvalidSignature = 6,
  kActorError = 10,  // actor logic returned an operational error
};

[[nodiscard]] constexpr bool success(ExitCode c) { return c == ExitCode::kOk; }

/// An event emitted by an actor during execution. The node layer watches
/// these to learn about SCA state changes (new top-down msgs, committed
/// checkpoints, atomic-execution transitions) without re-reading state.
struct ActorEvent {
  std::string kind;
  Bytes payload;

  bool operator==(const ActorEvent&) const = default;
};

struct Receipt {
  ExitCode exit = ExitCode::kOk;
  Bytes ret;             // actor return payload
  Gas gas_used = 0;
  std::string error;     // human-readable failure context (not consensus)
  std::vector<ActorEvent> events;

  [[nodiscard]] bool ok() const { return success(exit); }
  bool operator==(const Receipt&) const = default;
};

}  // namespace hc::chain

// The actor framework: the VM surface that actor logic programs against.
//
// Mirrors the Filecoin actor model the paper assumes (§III-A: "a new
// instance of the Virtual Machine ... system actors, i.e., smart contracts
// in Filecoin terminology"). Actor *logic* is stateless C++ registered per
// CodeId; actor *state* lives in the StateTree as an immutable StateBlob:
// the canonical bytes the logic encodes/decodes, shared (never copied) by
// tree copies and journal priors. A blob written by actors::save_state also
// carries the decoded object it was encoded from, so the next
// actors::load_state copies that memo instead of decoding the bytes again
// (DESIGN.md §12). The Runtime interface is the only capability an actor
// gets — no ambient access to the tree, the network, or the clock.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "chain/block.hpp"
#include "chain/message.hpp"
#include "chain/receipt.hpp"
#include "chain/state.hpp"

namespace hc::chain {

/// Execution capabilities handed to actor logic. Implemented by the
/// Executor; tests may stub it.
class Runtime {
 public:
  virtual ~Runtime() = default;

  // ------------------------------------------------------------- identity
  [[nodiscard]] virtual Address self() const = 0;
  [[nodiscard]] virtual Address caller() const = 0;
  /// Original (top-level) message sender.
  [[nodiscard]] virtual Address origin() const = 0;
  [[nodiscard]] virtual TokenAmount value_received() const = 0;
  [[nodiscard]] virtual Epoch current_epoch() const = 0;

  // ---------------------------------------------------------------- state
  /// This actor's serialized state (charges storage_read gas). Shares the
  /// tree's blob; no bytes are copied.
  [[nodiscard]] virtual Result<StateBlob> get_state() = 0;
  /// Replace this actor's serialized state (charges storage_write gas per
  /// encoded byte).
  [[nodiscard]] virtual Status set_state(StateBlob state) = 0;
  /// This actor's current balance.
  [[nodiscard]] virtual TokenAmount balance() const = 0;

  // ---------------------------------------------------------------- calls
  /// Synchronous internal call to another actor (value may be zero).
  [[nodiscard]] virtual Result<Bytes> send(const Address& to, MethodNum method,
                                           Bytes params,
                                           TokenAmount value) = 0;

  /// Create a new actor via the Init-actor machinery; returns its address.
  /// Only callable by the Init actor itself.
  [[nodiscard]] virtual Result<Address> create_actor(CodeId code,
                                                     Bytes state) = 0;

  // ---------------------------------------------------------------- misc
  /// Emit an event into the receipt (node layer subscribes to these).
  virtual void emit_event(std::string kind, Bytes payload) = 0;

  /// Charge extra gas for actor-specific heavy work.
  [[nodiscard]] virtual Status charge_gas(Gas amount) = 0;

  /// Deterministic per-message entropy (e.g. leader tickets).
  [[nodiscard]] virtual Digest randomness(std::string_view tag) = 0;
};

/// Stateless logic for one actor code id.
class ActorLogic {
 public:
  virtual ~ActorLogic() = default;

  /// Dispatch a method call. Returning an Error produces an kActorError
  /// receipt and rolls back all state changes made by this message.
  [[nodiscard]] virtual Result<Bytes> invoke(Runtime& rt, MethodNum method,
                                             const Bytes& params) = 0;
};

/// Registry mapping CodeId -> logic singleton.
class ActorRegistry {
 public:
  void install(CodeId code, std::unique_ptr<ActorLogic> logic);
  [[nodiscard]] ActorLogic* find(CodeId code) const;

 private:
  std::unordered_map<CodeId, std::unique_ptr<ActorLogic>> logics_;
};

}  // namespace hc::chain

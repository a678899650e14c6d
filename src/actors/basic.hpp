// Basic system actors: Account, Init, and the KV demo application.
#pragma once

#include "actors/methods.hpp"
#include "chain/actor.hpp"

namespace hc::actors {

/// Plain externally-owned account. Accepts bare transfers only; the
/// executor handles method 0 itself, so every dispatched method is invalid.
class AccountActor final : public chain::ActorLogic {
 public:
  Result<Bytes> invoke(chain::Runtime& rt, chain::MethodNum method,
                       const Bytes& params) override;
};

/// Init actor parameters for Exec.
struct ExecParams {
  chain::CodeId code = 0;
  Bytes ctor_state;  // initial serialized state for the new actor

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.varint(s.code).bytes(s.ctor_state);
  }
};

/// The actor factory (address f01): assigns ID addresses to new actors.
/// Spawning a subnet starts here: "peers need to deploy a new Subnet Actor"
/// (paper §III-A) — i.e. call Exec with kCodeSubnetActor.
class InitActor final : public chain::ActorLogic {
 public:
  Result<Bytes> invoke(chain::Runtime& rt, chain::MethodNum method,
                       const Bytes& params) override;
};

/// KV app parameters.
struct KvParams {
  Bytes key;
  Bytes value;  // used by kPut / kApplyOutput

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.bytes(s.key).bytes(s.value);
  }
};

/// Demo application actor: a key-value store whose keys can be locked as
/// atomic-execution inputs (paper §IV-D "each user needs to lock, in their
/// subnet, the state that will be used as input for the execution").
class KvStoreActor final : public chain::ActorLogic {
 public:
  Result<Bytes> invoke(chain::Runtime& rt, chain::MethodNum method,
                       const Bytes& params) override;
};

/// KV actor state, exposed for tests and the atomic-execution client.
struct KvState {
  struct Entry {
    Bytes key;
    Bytes value;
    bool locked = false;

    template <class S, class Io>
    static void fields(S& s, Io& io) {
      io.bytes(s.key).bytes(s.value).boolean(s.locked);
    }
    bool operator==(const Entry&) const = default;
  };
  std::vector<Entry> entries;

  [[nodiscard]] Entry* find(const Bytes& key) {
    for (auto& e : entries) {
      if (e.key == key) return &e;
    }
    return nullptr;
  }

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.vec(s.entries);
  }
  bool operator==(const KvState&) const = default;
};

}  // namespace hc::actors

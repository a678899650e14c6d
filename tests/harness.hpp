// Shared test harness: a single-chain "world" with the standard actor set,
// funded user accounts, and helpers to execute messages without the
// networking/consensus stack. Used by the actor and protocol unit tests;
// the full-stack integration tests use the runtime::Hierarchy instead.
#pragma once

#include <string>
#include <unordered_map>

#include "actors/basic.hpp"
#include "actors/methods.hpp"
#include "actors/registry.hpp"
#include "actors/sca_actor.hpp"
#include "actors/subnet_actor.hpp"
#include "actors/util.hpp"
#include "chain/executor.hpp"
#include "crypto/schnorr.hpp"

namespace hc::testing {

/// A user identity: key pair + derived address + tracked nonce.
struct User {
  crypto::KeyPair key;
  Address addr;
  std::uint64_t nonce = 0;

  explicit User(const std::string& label)
      : key(crypto::KeyPair::from_label(label)),
        addr(Address::key(key.public_key().to_bytes())) {}
};

/// One simulated chain with executor and standard actors.
class ChainWorld {
 public:
  explicit ChainWorld(const core::SubnetId& self = core::SubnetId::root(),
                      std::uint32_t checkpoint_period = 10) {
    actors::install_standard_actors(registry_);

    chain::ActorEntry init;
    init.code = chain::kCodeInit;
    init.nonce = 100;  // first dynamic actor id
    tree_.set(chain::kInitAddr, init);

    chain::ActorEntry sca;
    sca.code = chain::kCodeSca;
    sca.state = actors::make_sca_ctor_state(self, checkpoint_period);
    tree_.set(chain::kScaAddr, sca);

    ctx_.height = 1;
    ctx_.miner = Address::id(900);
  }

  /// Create (or fetch) a funded user account.
  User& user(const std::string& label, TokenAmount funds = TokenAmount::whole(1000)) {
    auto it = users_.find(label);
    if (it != users_.end()) return it->second;
    auto [nit, inserted] = users_.emplace(label, User(label));
    chain::ActorEntry entry;
    entry.code = chain::kCodeAccount;
    entry.balance = funds;
    tree_.set(nit->second.addr, entry);
    return nit->second;
  }

  /// Execute a signed message from `u`; auto-nonce, generous gas.
  chain::Receipt call(User& u, const Address& to, chain::MethodNum method,
                      Bytes params, TokenAmount value) {
    chain::Message m;
    m.from = u.addr;
    m.to = to;
    m.nonce = u.nonce++;
    m.value = value;
    m.method = method;
    m.params = std::move(params);
    m.gas_limit = 1u << 26;
    m.gas_price = TokenAmount::atto(1);
    chain::Executor exec(registry_, schedule_);
    return exec.apply(tree_, chain::SignedMessage::sign(std::move(m), u.key),
                      ctx_);
  }

  /// Execute an implicit (protocol) message.
  chain::Receipt implicit(const Address& to, chain::MethodNum method,
                          Bytes params, TokenAmount value) {
    chain::Message m;
    m.from = chain::kSystemAddr;
    m.to = to;
    m.value = value;
    m.method = method;
    m.params = std::move(params);
    chain::Executor exec(registry_, schedule_);
    return exec.apply_implicit(tree_, m, ctx_);
  }

  /// Deploy an SA with the given params; returns its address.
  Address deploy_sa(User& u, const core::SubnetParams& params) {
    actors::ExecParams exec;
    exec.code = chain::kCodeSubnetActor;
    exec.ctor_state = actors::make_sa_ctor_state(params);
    auto r = call(u, chain::kInitAddr, actors::init_method::kExec,
                  encode(exec), TokenAmount());
    if (!r.ok()) return Address();
    auto addr = decode<Address>(r.ret);
    return addr.ok() ? addr.value() : Address();
  }

  /// Decode the SCA state.
  [[nodiscard]] actors::ScaState sca_state() const {
    auto s = decode<actors::ScaState>(tree_.get(chain::kScaAddr)->state.view());
    return s.ok() ? std::move(s).value() : actors::ScaState{};
  }

  /// Decode an SA's state.
  [[nodiscard]] actors::SaState sa_state(const Address& sa) const {
    auto s = decode<actors::SaState>(tree_.get(sa)->state.view());
    return s.ok() ? std::move(s).value() : actors::SaState{};
  }

  [[nodiscard]] TokenAmount balance(const Address& a) const {
    const auto* e = tree_.get(a);
    return e == nullptr ? TokenAmount() : e->balance;
  }

  chain::StateTree& tree() { return tree_; }
  chain::ExecutionContext& ctx() { return ctx_; }
  const chain::ActorRegistry& registry() const { return registry_; }
  const chain::GasSchedule& schedule() const { return schedule_; }

 private:
  chain::ActorRegistry registry_;
  chain::GasSchedule schedule_;
  chain::StateTree tree_;
  chain::ExecutionContext ctx_;
  std::unordered_map<std::string, User> users_;
};

}  // namespace hc::testing

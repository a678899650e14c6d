#include "actors/subnet_actor.hpp"

#include <algorithm>

#include "actors/util.hpp"

namespace hc::actors {

Bytes make_sa_ctor_state(const core::SubnetParams& params) {
  SaState state;
  state.params = params;
  return encode(state);
}

Result<Bytes> SubnetActor::invoke(chain::Runtime& rt, chain::MethodNum method,
                                  const Bytes& params) {
  HC_TRY(state, load_state<SaState>(rt));
  if (state.killed && method != sa_method::kGetInfo) {
    return Error(Errc::kUnavailable, "subnet actor is killed");
  }
  switch (method) {
    case sa_method::kJoin:
      return join(rt, std::move(state), params);
    case sa_method::kLeave:
      return leave(rt, std::move(state));
    case sa_method::kKill:
      return kill(rt, std::move(state));
    case sa_method::kSubmitCheckpoint:
      return submit_checkpoint(rt, std::move(state), params);
    case sa_method::kSlash:
      return slash(rt, std::move(state), params);
    case sa_method::kGetInfo:
      return encode(state);
    default:
      return Error(Errc::kInvalidArgument, "subnet actor: unknown method");
  }
}

Result<Bytes> SubnetActor::join(chain::Runtime& rt, SaState state,
                                const Bytes& params) {
  HC_TRY(p, decode<JoinParams>(params));
  if (!p.pubkey.valid()) {
    return Error(Errc::kInvalidArgument, "invalid validator public key");
  }
  // Validators join on their own behalf: the caller must own the key.
  if (rt.caller() != Address::key(p.pubkey.to_bytes())) {
    return Error(Errc::kPermissionDenied,
                 "caller does not own the provided public key");
  }
  const TokenAmount stake = rt.value_received();
  if (stake < state.params.min_validator_stake) {
    return Error(Errc::kInsufficientFunds,
                 "stake below the subnet's minimum validator stake");
  }

  auto it = std::find_if(
      state.validators.begin(), state.validators.end(),
      [&](const ValidatorInfo& v) { return v.pubkey == p.pubkey; });
  if (it != state.validators.end()) {
    it->stake += stake;
  } else {
    state.validators.push_back(ValidatorInfo{p.pubkey, stake});
  }
  state.total_stake += stake;

  if (!state.registered) {
    if (state.total_stake >= state.params.min_collateral) {
      // Enough collateral gathered: register with the SCA, depositing all
      // accumulated stake (paper §III-B: "Subnet miners need to provide a
      // minimum collateral in their parent's SCA to register the subnet").
      HC_TRY(ret, rt.send(chain::kScaAddr, sca_method::kRegister,
                          encode(state.params), state.total_stake));
      HC_TRY(assigned, decode<core::SubnetId>(ret));
      state.subnet_id = assigned;
      state.registered = true;
      rt.emit_event("sa/registered", encode(state.subnet_id));
    }
    // Below threshold: stake accumulates in the SA's own balance.
  } else {
    HC_TRY_STATUS(to_status(
        rt.send(chain::kScaAddr, sca_method::kAddStake, {}, stake)));
  }
  HC_TRY_STATUS(save_state(rt, std::move(state)));
  rt.emit_event("sa/joined", p.pubkey.to_bytes());
  return Bytes{};
}

Result<Bytes> SubnetActor::leave(chain::Runtime& rt, SaState state) {
  auto it = std::find_if(state.validators.begin(), state.validators.end(),
                         [&](const ValidatorInfo& v) {
                           return v.address() == rt.caller();
                         });
  if (it == state.validators.end()) {
    return Error(Errc::kNotFound, "caller is not a validator of this subnet");
  }
  const TokenAmount refund = it->stake;
  state.total_stake -= refund;
  state.validators.erase(it);

  if (state.registered) {
    Encoder p;
    p.obj(refund).obj(rt.caller());
    HC_TRY_STATUS(to_status(rt.send(chain::kScaAddr, sca_method::kReleaseStake,
                                   p.data(), TokenAmount())));
  } else {
    // Never registered: funds still sit in this SA; refund directly.
    HC_TRY_STATUS(to_status(rt.send(rt.caller(), 0, {}, refund)));
  }
  HC_TRY_STATUS(save_state(rt, std::move(state)));
  rt.emit_event("sa/left", encode(rt.caller()));
  return Bytes{};
}

Result<Bytes> SubnetActor::kill(chain::Runtime& rt, SaState state) {
  // Paper §III-C: killing requires the SA-defined conditions; this default
  // SA requires the validator set to be empty (everyone has left).
  if (!state.validators.empty()) {
    return Error(Errc::kStateConflict,
                 "subnet still has validators; all must leave before kill");
  }
  if (state.registered) {
    Encoder p;
    p.obj(rt.caller());
    HC_TRY_STATUS(to_status(rt.send(chain::kScaAddr, sca_method::kKill,
                                   p.data(), TokenAmount())));
  }
  state.killed = true;
  HC_TRY_STATUS(save_state(rt, state));
  rt.emit_event("sa/killed", encode(state.subnet_id));
  return Bytes{};
}

Result<Bytes> SubnetActor::submit_checkpoint(chain::Runtime& rt, SaState state,
                                             const Bytes& params) {
  if (!state.registered) {
    return Error(Errc::kUnavailable, "subnet is not registered");
  }
  HC_TRY(sc, decode<core::SignedCheckpoint>(params));
  const core::Checkpoint& cp = sc.checkpoint;
  if (cp.source != state.subnet_id) {
    return Error(Errc::kInvalidArgument,
                 "checkpoint source does not match this subnet");
  }
  if (cp.epoch <= state.last_checkpoint_epoch) {
    return Error(Errc::kStateConflict, "checkpoint epoch is not newer");
  }
  if (cp.prev != state.last_checkpoint) {
    return Error(Errc::kStateConflict,
                 "checkpoint prev pointer does not match last accepted");
  }
  // The SA enforces its signature policy before anything reaches the SCA
  // (paper §III-B: "The specific signature policy is defined in the SA").
  HC_TRY_STATUS(
      state.params.checkpoint_policy.verify(sc, state.validator_keys()));

  state.last_checkpoint = cp.cid();
  state.last_checkpoint_epoch = cp.epoch;
  HC_TRY_STATUS(save_state(rt, state));

  HC_TRY_STATUS(to_status(rt.send(chain::kScaAddr,
                                   sca_method::kCommitChildCheckpoint,
                                   encode(sc), TokenAmount())));
  rt.emit_event("sa/checkpoint", encode(state.last_checkpoint));
  return Bytes{};
}

Result<Bytes> SubnetActor::slash(chain::Runtime& rt, SaState state,
                                 const Bytes& params) {
  if (rt.caller() != chain::kScaAddr) {
    return Error(Errc::kPermissionDenied, "only the SCA may slash");
  }
  HC_TRY(p, decode<SlashParams>(params));
  TokenAmount slashed;
  std::vector<ValidatorInfo> removed;
  for (const auto& key : p.guilty) {
    auto it = std::find_if(
        state.validators.begin(), state.validators.end(),
        [&](const ValidatorInfo& v) { return v.pubkey == key; });
    if (it == state.validators.end()) continue;
    slashed += it->stake;
    state.total_stake -= it->stake;
    removed.push_back(*it);
    state.validators.erase(it);
  }
  // Keep checkpointing live after the set shrinks: a 3-of-3 policy with one
  // validator slashed degrades to 2-of-2 instead of wedging forever.
  core::SignaturePolicy& policy = state.params.checkpoint_policy;
  if (policy.kind != core::SignaturePolicyKind::kSingle &&
      !state.validators.empty() &&
      policy.threshold > state.validators.size()) {
    policy.threshold = static_cast<std::uint32_t>(state.validators.size());
  }
  HC_TRY_STATUS(save_state(rt, std::move(state)));
  rt.emit_event("sa/slashed", encode(slashed));
  Encoder ret;
  ret.vec(removed);
  return std::move(ret).take();
}

}  // namespace hc::actors

#include "actors/sca_actor.hpp"

#include <algorithm>
#include <map>

#include "actors/subnet_actor.hpp"
#include "actors/util.hpp"

namespace hc::actors {

chain::StateBlob make_sca_ctor_state(const core::SubnetId& self,
                                     std::uint32_t checkpoint_period,
                                     std::uint64_t topdown_window_cap) {
  ScaState state;
  state.self = self;
  state.checkpoint_period = checkpoint_period;
  state.topdown_window_cap = topdown_window_cap;
  return state_blob(std::move(state));
}

bool breaker_open(const ScaState& s, const SubnetEntry& child) {
  return s.topdown_window_cap > 0 &&
         child.topdown_since_checkpoint >= s.topdown_window_cap;
}

Result<Bytes> ScaActor::invoke(chain::Runtime& rt, chain::MethodNum method,
                               const Bytes& params) {
  HC_TRY(state, load_state<ScaState>(rt));

  // Implicit-only methods: injected by the protocol, never by users.
  const bool implicit_only = method == sca_method::kCutCheckpoint ||
                             method == sca_method::kApplyTopDown ||
                             method == sca_method::kApplyBottomUp;
  if (implicit_only && rt.caller() != chain::kSystemAddr) {
    return Error(Errc::kPermissionDenied,
                 "method reserved for protocol-injected messages");
  }

  Result<Bytes> result = Bytes{};
  switch (method) {
    case sca_method::kRegister:
      result = register_subnet(rt, state, params);
      break;
    case sca_method::kAddStake:
      result = add_stake(rt, state);
      break;
    case sca_method::kReleaseStake:
      result = release_stake(rt, state, params);
      break;
    case sca_method::kKill:
      result = kill_subnet(rt, state, params);
      break;
    case sca_method::kFund:
    case sca_method::kRelease:
    case sca_method::kSendCross:
      result = send_cross(rt, state, params);
      break;
    case sca_method::kCommitChildCheckpoint:
      result = commit_child_checkpoint(rt, state, params);
      break;
    case sca_method::kCutCheckpoint:
      result = cut_checkpoint(rt, state, params);
      break;
    case sca_method::kApplyTopDown:
      result = apply_topdown(rt, state, params);
      break;
    case sca_method::kApplyBottomUp:
      result = apply_bottomup(rt, state, params);
      break;
    case sca_method::kSubmitFraudProof:
      result = submit_fraud_proof(rt, state, params);
      break;
    case sca_method::kSave:
      result = save_snapshot(rt, state, params);
      break;
    case sca_method::kRecover:
      result = recover_funds(rt, state, params);
      break;
    case sca_method::kAtomicInit:
      result = atomic_init(rt, state, AtomicParty{state.self, rt.caller()},
                           params);
      break;
    case sca_method::kAtomicSubmit:
      result = atomic_submit(rt, state, AtomicParty{state.self, rt.caller()},
                             params);
      break;
    case sca_method::kAtomicAbort:
      result = atomic_abort(rt, state, AtomicParty{state.self, rt.caller()},
                            params);
      break;
    default:
      return Error(Errc::kInvalidArgument, "SCA: unknown method");
  }
  if (!result) return result;
  HC_TRY_STATUS(save_state(rt, std::move(state)));
  return result;
}

Result<Bytes> ScaActor::register_subnet(Rt& rt, ScaState& s,
                                        const Bytes& params) {
  HC_TRY(p, decode<core::SubnetParams>(params));
  const Address sa = rt.caller();
  if (s.subnets.contains(sa)) {
    return Error(Errc::kAlreadyExists, "subnet already registered");
  }
  if (rt.value_received() < p.min_collateral) {
    return Error(Errc::kInsufficientFunds,
                 "registration collateral below the subnet minimum");
  }
  SubnetEntry entry;
  entry.id = s.self.child(sa);
  entry.sa = sa;
  entry.status = core::SubnetStatus::kActive;
  entry.collateral = rt.value_received();
  entry.min_collateral = p.min_collateral;
  const Bytes id_bytes = encode(entry.id);
  s.subnets.emplace(sa, std::move(entry));
  rt.emit_event("sca/subnet-registered", id_bytes);
  return id_bytes;
}

Result<Bytes> ScaActor::add_stake(Rt& rt, ScaState& s) {
  SubnetEntry* entry = s.find_subnet(rt.caller());
  if (entry == nullptr) {
    return Error(Errc::kNotFound, "caller is not a registered subnet");
  }
  if (entry->status == core::SubnetStatus::kKilled) {
    return Error(Errc::kUnavailable, "subnet is killed");
  }
  entry->collateral += rt.value_received();
  if (entry->status == core::SubnetStatus::kInactive &&
      entry->collateral >= entry->min_collateral) {
    entry->status = core::SubnetStatus::kActive;
    rt.emit_event("sca/subnet-activated", encode(entry->id));
  }
  return Bytes{};
}

Result<Bytes> ScaActor::release_stake(Rt& rt, ScaState& s,
                                      const Bytes& params) {
  HC_TRY(p, decode<ReleaseStakeParams>(params));
  SubnetEntry* entry = s.find_subnet(rt.caller());
  if (entry == nullptr) {
    return Error(Errc::kNotFound, "caller is not a registered subnet");
  }
  if (entry->status == core::SubnetStatus::kKilled) {
    return Error(Errc::kUnavailable, "subnet is killed");
  }
  if (p.amount.negative() || entry->collateral < p.amount) {
    return Error(Errc::kInsufficientFunds,
                 "release exceeds deposited collateral");
  }
  entry->collateral -= p.amount;
  HC_TRY_STATUS(to_status(rt.send(p.recipient, 0, {}, p.amount)));
  if (entry->collateral < entry->min_collateral &&
      entry->status == core::SubnetStatus::kActive) {
    // Paper §III-B: "If the subnet's collateral drops below
    // minCollateral, the subnet enters an inactive state."
    entry->status = core::SubnetStatus::kInactive;
    rt.emit_event("sca/subnet-deactivated", encode(entry->id));
  }
  return Bytes{};
}

Result<Bytes> ScaActor::kill_subnet(Rt& rt, ScaState& s, const Bytes& params) {
  HC_TRY(p, decode<KillParams>(params));
  SubnetEntry* entry = s.find_subnet(rt.caller());
  if (entry == nullptr) {
    return Error(Errc::kNotFound, "caller is not a registered subnet");
  }
  if (entry->status == core::SubnetStatus::kKilled) {
    return Error(Errc::kUnavailable, "subnet is already killed");
  }
  const TokenAmount refund = entry->collateral;
  entry->collateral = TokenAmount();
  entry->status = core::SubnetStatus::kKilled;
  if (!refund.is_zero()) {
    HC_TRY_STATUS(to_status(rt.send(p.recipient, 0, {}, refund)));
  }
  rt.emit_event("sca/subnet-killed", encode(entry->id));
  return Bytes{};
}

Status ScaActor::route_out(Rt& rt, ScaState& s, core::CrossMsg cross) {
  if (s.self.is_prefix_of(cross.to_subnet) && cross.to_subnet != s.self) {
    // Top-down: freeze the funds in this SCA, assign the child-scoped nonce
    // fixing total order in the destination (paper §IV-A).
    SubnetEntry* child = s.child_toward(cross.to_subnet);
    if (child == nullptr) {
      return Error(Errc::kNotFound,
                   "no registered child toward " + cross.to_subnet.to_string());
    }
    if (child->status != core::SubnetStatus::kActive) {
      return Error(Errc::kUnavailable,
                   "child subnet toward destination is not active");
    }
    // Circuit breaker (DESIGN.md §14): shed BEFORE consuming a nonce or
    // minting circulating supply, so a shed message leaves no trace in the
    // child's total order and the firewall bound is untouched. The caller's
    // failure path emits the paper's revert cross-msg (§IV) for forwarded
    // hops, or reverts the sender's funds locally for fresh sends.
    if (breaker_open(s, *child)) {
      ++child->topdown_shed;
      rt.emit_event("sca/topdown-shed", encode(cross));
      return Error(Errc::kOverloaded,
                   "top-down breaker open toward " + child->id.to_string() +
                       " (backlog " +
                       std::to_string(child->topdown_since_checkpoint) +
                       ", last checkpoint epoch " +
                       std::to_string(child->last_checkpoint_epoch) + ")");
    }
    ++child->topdown_since_checkpoint;
    cross.nonce = child->topdown_nonce++;
    child->circulating_supply += cross.msg.value;
    const Bytes payload = encode(cross);
    child->topdown_queue.push_back(std::move(cross));
    rt.emit_event("sca/topdown", payload);
    return ok_status();
  }
  // Bottom-up (or path) leg: burn locally, carry in the next checkpoint
  // (paper §IV-A: "Every message leaving the subnet triggers the burn (in
  // the child) and release (in the parent) of the funds included").
  if (s.self.is_root()) {
    return Error(Errc::kNotFound,
                 "destination " + cross.to_subnet.to_string() +
                     " is not part of the hierarchy");
  }
  if (!cross.msg.value.is_zero()) {
    HC_TRY_STATUS(to_status(rt.send(chain::kBurnAddr, 0, {}, cross.msg.value)));
  }
  const Bytes payload = encode(cross);
  s.window_msgs.push_back(std::move(cross));
  rt.emit_event("sca/release", payload);
  return ok_status();
}

Result<Bytes> ScaActor::send_cross(Rt& rt, ScaState& s, const Bytes& params) {
  HC_TRY(p, decode<CrossParams>(params));
  if (p.dest == s.self) {
    return Error(Errc::kInvalidArgument,
                 "cross-net destination is this subnet itself");
  }
  core::CrossMsg cross;
  cross.from_subnet = s.self;
  cross.to_subnet = p.dest;
  cross.msg.from = rt.caller();
  cross.msg.to = p.to;
  cross.msg.value = rt.value_received();
  cross.msg.method = p.method;
  cross.msg.params = std::move(p.inner_params);
  HC_TRY_STATUS(route_out(rt, s, std::move(cross)));
  return Bytes{};
}

Result<Bytes> ScaActor::commit_child_checkpoint(Rt& rt, ScaState& s,
                                                const Bytes& params) {
  SubnetEntry* entry = s.find_subnet(rt.caller());
  if (entry == nullptr) {
    return Error(Errc::kPermissionDenied,
                 "checkpoint committer is not a registered subnet's SA");
  }
  if (entry->status != core::SubnetStatus::kActive) {
    // Paper §III-B: an inactive subnet "can no longer interact with the
    // rest of the hierarchy".
    return Error(Errc::kUnavailable, "subnet is not active");
  }
  HC_TRY(sc, decode<core::SignedCheckpoint>(params));
  const core::Checkpoint& cp = sc.checkpoint;
  if (cp.source != entry->id) {
    return Error(Errc::kInvalidArgument, "checkpoint source mismatch");
  }
  if (cp.epoch <= entry->last_checkpoint_epoch) {
    return Error(Errc::kStateConflict, "stale checkpoint epoch");
  }
  const Cid expected_prev =
      entry->checkpoints.empty() ? Cid() : entry->checkpoints.back();
  if (cp.prev != expected_prev) {
    return Error(Errc::kStateConflict, "checkpoint prev-chain broken");
  }

  // Process the CrossMsgMeta tree (paper §IV-B and Fig. 3 right).
  for (const core::CrossMsgMeta& meta : cp.cross_meta) {
    if (!entry->id.is_prefix_of(meta.from)) {
      return Error(Errc::kInvalidArgument,
                   "cross-msg meta claims a source outside the child subtree");
    }
    // FIREWALL (paper §II): a child can never withdraw more than its
    // circulating supply, bounding the damage of a compromised subnet.
    if (meta.value > entry->circulating_supply) {
      return Error(Errc::kPermissionDenied,
                   "firewall: cross-msg value exceeds the child's "
                   "circulating supply");
    }
    entry->circulating_supply -= meta.value;

    if (s.self.is_prefix_of(meta.to)) {
      // Destined here or below: adopt with the next bottom-up nonce
      // ("assigned an increasing nonce for posterior validation and
      // application by the subnet's consensus algorithm").
      PendingBottomUp pending;
      pending.nonce = s.bottomup_nonce++;
      pending.meta = meta;
      const Bytes payload = encode(pending);
      s.pending_bottomup.push_back(std::move(pending));
      rt.emit_event("sca/bottomup-adopted", payload);
    } else {
      // Destined elsewhere: the funds leave this subnet too, so the custody
      // frozen here when they came down must burn now, mirroring the
      // release the ancestor will perform (paper §IV-A: burn in the child,
      // release in the parent). Without the burn the custody is orphaned
      // and the subtree drifts off the parent's circulating-supply entry.
      if (!meta.value.is_zero()) {
        HC_TRY_STATUS(
            to_status(rt.send(chain::kBurnAddr, 0, {}, meta.value)));
      }
      // Propagate the meta farther up in our next checkpoint.
      s.forward_meta.push_back(meta);
    }
  }

  const Cid cid = cp.cid();
  entry->checkpoints.push_back(cid);
  entry->last_checkpoint_epoch = cp.epoch;
  // A fresh checkpoint acknowledges the child's progress: the top-down
  // backlog window restarts and the circuit breaker (if open) closes.
  entry->topdown_since_checkpoint = 0;

  // Aggregate into our own next checkpoint's children tree.
  auto child_it = std::find_if(
      s.window_children.begin(), s.window_children.end(),
      [&](const core::ChildCheck& c) { return c.subnet == entry->id; });
  if (child_it == s.window_children.end()) {
    s.window_children.push_back(core::ChildCheck{entry->id, {cid}});
  } else {
    child_it->checkpoints.push_back(cid);
  }

  rt.emit_event("sca/checkpoint-committed", encode(cp));
  return encode(cid);
}

Result<Bytes> ScaActor::cut_checkpoint(Rt& rt, ScaState& s,
                                       const Bytes& params) {
  if (s.self.is_root()) {
    return Error(Errc::kInvalidArgument,
                 "the rootnet has no parent to checkpoint to");
  }
  HC_TRY(p, decode<CutParams>(params));
  if (p.epoch <= s.last_own_checkpoint_epoch) {
    return Error(Errc::kStateConflict, "checkpoint window already cut");
  }

  core::Checkpoint cp;
  cp.source = s.self;
  cp.epoch = p.epoch;
  cp.proof = p.proof;
  cp.prev = s.last_own_checkpoint;
  cp.children = std::move(s.window_children);
  cp.cross_meta = std::move(s.forward_meta);

  // Bundle this window's own bottom-up msgs into per-destination batches;
  // record each batch in the registry so the content-resolution protocol
  // can serve it (paper §IV-C).
  std::map<core::SubnetId, core::CrossMsgBatch> by_dest;
  for (auto& m : s.window_msgs) {
    by_dest[m.to_subnet].msgs.push_back(std::move(m));
  }
  for (auto& [dest, batch] : by_dest) {
    const Cid batch_cid = batch.cid();
    core::CrossMsgMeta meta;
    meta.from = s.self;
    meta.to = dest;
    meta.msgs_cid = batch_cid;
    meta.msg_count = static_cast<std::uint32_t>(batch.msgs.size());
    meta.value = batch.total_value();
    cp.cross_meta.push_back(std::move(meta));
    s.msg_registry[batch_cid.digest_bytes()] = encode(batch);
  }

  s.window_msgs.clear();
  s.window_children.clear();
  s.forward_meta.clear();
  s.pending_checkpoint = cp;
  s.last_own_checkpoint = cp.cid();
  s.last_own_checkpoint_epoch = p.epoch;
  rt.emit_event("sca/checkpoint-cut", encode(cp));
  return encode(cp);
}

Status ScaActor::deliver(Rt& rt, ScaState& s, const core::CrossMsg& cross) {
  if (cross.to_subnet == s.self) {
    // Arrived: execute against the local state.
    Result<Bytes> result = Bytes{};
    if (cross.msg.to == chain::kScaAddr &&
        (cross.msg.method == sca_method::kAtomicInit ||
         cross.msg.method == sca_method::kAtomicSubmit ||
         cross.msg.method == sca_method::kAtomicAbort)) {
      // Atomic-execution calls arriving cross-net carry their origin
      // identity from the (already verified) source subnet.
      const AtomicParty party{cross.from_subnet, cross.msg.from};
      switch (cross.msg.method) {
        case sca_method::kAtomicInit:
          result = atomic_init(rt, s, party, cross.msg.params);
          break;
        case sca_method::kAtomicSubmit:
          result = atomic_submit(rt, s, party, cross.msg.params);
          break;
        default:
          result = atomic_abort(rt, s, party, cross.msg.params);
          break;
      }
    } else {
      result = rt.send(cross.msg.to, cross.msg.method, cross.msg.params,
                       cross.msg.value);
    }
    if (!result) {
      // Paper §IV-B: "a cross-msg that cannot be applied in a subnet
      // triggers a new cross-msg with the subnet where the execution ...
      // failed as source and the original source of the message as
      // destination", reverting intermediate state changes (funds).
      core::CrossMsg revert;
      revert.from_subnet = s.self;
      revert.to_subnet = cross.from_subnet;
      revert.msg.from = cross.msg.to;
      revert.msg.to = cross.msg.from;
      revert.msg.value = cross.msg.value;
      rt.emit_event("sca/cross-reverted", encode(cross));
      return route_out(rt, s, std::move(revert));
    }
    return ok_status();
  }
  if (s.self.is_prefix_of(cross.to_subnet)) {
    // Forward down the next hop, preserving the original source.
    core::CrossMsg fwd = cross;
    Status routed = route_out(rt, s, std::move(fwd));
    if (!routed) {
      // Next hop missing or inactive: revert toward the source.
      core::CrossMsg revert;
      revert.from_subnet = s.self;
      revert.to_subnet = cross.from_subnet;
      revert.msg.from = cross.msg.to;
      revert.msg.to = cross.msg.from;
      revert.msg.value = cross.msg.value;
      rt.emit_event("sca/cross-reverted", encode(cross));
      return route_out(rt, s, std::move(revert));
    }
    return routed;
  }
  // Needs to continue upward (unusual: only when adoption rules change);
  // treat like a locally originated bottom-up message.
  core::CrossMsg up = cross;
  return route_out(rt, s, std::move(up));
}

Result<Bytes> ScaActor::apply_topdown(Rt& rt, ScaState& s,
                                      const Bytes& params) {
  HC_TRY(cross, decode<core::CrossMsg>(params));
  if (cross.nonce != s.applied_topdown_nonce) {
    return Error(Errc::kInvalidNonce,
                 "top-down nonce " + std::to_string(cross.nonce) +
                     " applied out of order (expected " +
                     std::to_string(s.applied_topdown_nonce) + ")");
  }
  s.applied_topdown_nonce += 1;
  HC_TRY_STATUS(deliver(rt, s, cross));
  return Bytes{};
}

Result<Bytes> ScaActor::apply_bottomup(Rt& rt, ScaState& s,
                                       const Bytes& params) {
  HC_TRY(p, decode<ApplyBottomUpParams>(params));
  if (p.nonce != s.applied_bottomup_nonce) {
    return Error(Errc::kInvalidNonce, "bottom-up batch applied out of order");
  }
  auto it = std::find_if(
      s.pending_bottomup.begin(), s.pending_bottomup.end(),
      [&](const PendingBottomUp& pb) { return pb.nonce == p.nonce; });
  if (it == s.pending_bottomup.end()) {
    return Error(Errc::kNotFound, "no adopted meta with this nonce");
  }
  if (it->executed) {
    return Error(Errc::kStateConflict, "batch already executed");
  }
  // Unforgeability: the batch must hash to the CID committed in the
  // checkpoint (paper §IV-C / §IV-D property (iii)).
  if (p.batch.cid() != it->meta.msgs_cid) {
    return Error(Errc::kInvalidArgument,
                 "batch content does not match the committed CID");
  }
  it->executed = true;
  s.applied_bottomup_nonce += 1;
  for (const core::CrossMsg& m : p.batch.msgs) {
    HC_TRY_STATUS(deliver(rt, s, m));
  }
  rt.emit_event("sca/bottomup-applied", encode_varint(p.nonce));
  return Bytes{};
}

Result<Bytes> ScaActor::submit_fraud_proof(Rt& rt, ScaState& s,
                                           const Bytes& params) {
  HC_TRY(proof, decode<core::FraudProof>(params));
  // Replay dedup, cheapest check first: a proof already processed (or its
  // mirror — the digest canonicalizes side order) conflicts instead of
  // re-running the slash path and re-emitting events.
  const Cid digest = proof.digest();
  if (std::find(s.fraud_digests.begin(), s.fraud_digests.end(), digest) !=
      s.fraud_digests.end()) {
    return Error(Errc::kStateConflict, "fraud proof already processed");
  }
  HC_TRY(guilty, proof.guilty_signers());
  const core::SubnetId& source = proof.first.checkpoint.source;
  const chain::Epoch epoch = proof.first.checkpoint.epoch;
  SubnetEntry* entry = nullptr;
  for (auto& [sa, e] : s.subnets) {
    if (e.id == source) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    return Error(Errc::kNotFound, "fraud proof targets an unknown child");
  }
  // Per-(subnet, epoch, signer) dedup: a differently-assembled proof over
  // the same equivocation (other signature subset, other forged side) must
  // not slash the same validator twice.
  std::vector<crypto::PublicKey> fresh;
  for (const auto& key : guilty) {
    if (!s.slashed(source, epoch, key)) fresh.push_back(key);
  }
  if (fresh.empty()) {
    return Error(Errc::kStateConflict,
                 "every equivocator already slashed for this epoch");
  }
  // Remove the equivocators from the SA's validator set; the SA reports
  // which validators it actually removed and the stake each held.
  HC_TRY(removed_bytes, rt.send(entry->sa, sa_method::kSlash,
                                encode(SlashParams{fresh}), TokenAmount()));
  Decoder removed_d(removed_bytes);
  HC_TRY(removed, removed_d.vec<ValidatorInfo>());
  if (removed.empty()) {
    // Every accused validator is already gone from the SA (slashed via an
    // earlier epoch's proof, or left): nothing to burn, no new record.
    return Error(Errc::kStateConflict,
                 "equivocators are no longer in the validator set");
  }
  TokenAmount slashed;
  for (const auto& v : removed) slashed += v.stake;
  // Slash the collateral (paper §III-B: "These collateral funds are the
  // ones slashed in the face of a valid fraud proof"). The stake goes to
  // the quarantine pot, not the burnt-funds sink: this chain may itself be
  // a subnet, and its parent's circulating-supply figure must keep
  // covering every token on it — including dead ones (see kSlashPotAddr).
  TokenAmount burn = slashed < entry->collateral ? slashed : entry->collateral;
  entry->collateral -= burn;
  if (!burn.is_zero()) {
    HC_TRY_STATUS(to_status(rt.send(chain::kSlashPotAddr, 0, {}, burn)));
  }
  // Record the outcome per signer, attributing the burn stake-by-stake
  // until the (possibly smaller) collateral runs out.
  std::vector<SlashRecord> records;
  TokenAmount remaining = burn;
  for (const auto& v : removed) {
    SlashRecord r;
    r.subnet = source;
    r.epoch = epoch;
    r.signer = v.pubkey;
    r.burned = v.stake < remaining ? v.stake : remaining;
    remaining -= r.burned;
    s.slash_records.push_back(r);
    records.push_back(std::move(r));
  }
  s.fraud_digests.push_back(digest);
  if (entry->collateral < entry->min_collateral &&
      entry->status == core::SubnetStatus::kActive) {
    entry->status = core::SubnetStatus::kInactive;
    rt.emit_event("sca/subnet-deactivated", encode(entry->id));
  }
  Encoder ev;
  ev.vec(records);
  rt.emit_event("sca/slashed", std::move(ev).take());
  return encode(burn);
}

Result<Bytes> ScaActor::save_snapshot(Rt& rt, ScaState& s,
                                      const Bytes& params) {
  HC_TRY(p, decode<SaveParams>(params));
  s.snapshots.push_back(StateSnapshot{rt.current_epoch(), p.state_root});
  rt.emit_event("sca/saved", encode(p.state_root));
  return Bytes{};
}

Result<Bytes> ScaActor::recover_funds(Rt& rt, ScaState& s,
                                      const Bytes& params) {
  HC_TRY(p, decode<RecoverParams>(params));
  SubnetEntry* entry = s.find_subnet(p.sa);
  if (entry == nullptr) {
    return Error(Errc::kNotFound, "unknown subnet");
  }
  // Recovery is the §III-C escape hatch for subnets that can no longer
  // move funds out the normal way.
  if (entry->status == core::SubnetStatus::kActive) {
    return Error(Errc::kStateConflict,
                 "subnet is active: withdraw with a bottom-up cross-msg");
  }
  if (rt.caller() != p.claimed_addr) {
    return Error(Errc::kPermissionDenied,
                 "only the account owner may recover its funds");
  }
  const bool already =
      std::find(entry->recovered.begin(), entry->recovered.end(),
                p.claimed_addr) != entry->recovered.end();
  if (already) {
    return Error(Errc::kAlreadyExists, "funds already recovered");
  }

  // Chain of trust: committed checkpoint -> block header -> state entry.
  const Cid cp_cid = p.checkpoint.cid();
  const bool committed =
      std::find(entry->checkpoints.begin(), entry->checkpoints.end(),
                cp_cid) != entry->checkpoints.end();
  if (!committed) {
    return Error(Errc::kInvalidArgument,
                 "checkpoint was never committed by this subnet");
  }
  if (p.header.cid() != p.checkpoint.proof) {
    return Error(Errc::kInvalidArgument,
                 "block header does not match the checkpoint's proof CID");
  }
  if (!chain::StateTree::verify_entry(p.header.state_root, p.claimed_addr,
                                      p.claimed_entry, p.proof)) {
    return Error(Errc::kInvalidSignature,
                 "state proof does not verify against the committed root");
  }

  // Firewall still applies: never release beyond the remaining supply.
  const TokenAmount amount = p.claimed_entry.balance < entry->circulating_supply
                                 ? p.claimed_entry.balance
                                 : entry->circulating_supply;
  entry->circulating_supply -= amount;
  entry->recovered.push_back(p.claimed_addr);
  if (!amount.is_zero()) {
    HC_TRY_STATUS(to_status(rt.send(p.claimed_addr, 0, {}, amount)));
  }
  rt.emit_event("sca/recovered", encode(amount));
  return encode(amount);
}

Result<Bytes> ScaActor::atomic_init(Rt& rt, ScaState& s,
                                    const AtomicParty& initiator,
                                    const Bytes& params) {
  HC_TRY(p, decode<AtomicInitParams>(params));
  if (p.parties.size() < 2) {
    return Error(Errc::kInvalidArgument,
                 "atomic execution needs at least two parties");
  }
  if (p.input_cids.size() != p.parties.size()) {
    return Error(Errc::kInvalidArgument,
                 "one input CID required per party");
  }
  const bool initiator_is_party =
      std::any_of(p.parties.begin(), p.parties.end(), [&](const AtomicParty& a) {
        return a.subnet == initiator.subnet && a.addr == initiator.addr;
      });
  if (!initiator_is_party) {
    return Error(Errc::kPermissionDenied,
                 "initiator is not a party of the execution");
  }
  AtomicExec exec;
  exec.id = s.next_exec_id++;
  exec.parties = std::move(p.parties);
  exec.input_cids = std::move(p.input_cids);
  exec.outputs.assign(exec.parties.size(), Cid());
  const std::uint64_t id = exec.id;
  s.atomic_execs.emplace(id, std::move(exec));
  rt.emit_event("sca/atomic-init", encode_varint(id));
  return encode_varint(id);
}

Result<Bytes> ScaActor::atomic_submit(Rt& rt, ScaState& s,
                                      const AtomicParty& party,
                                      const Bytes& params) {
  HC_TRY(p, decode<AtomicSubmitParams>(params));
  auto it = s.atomic_execs.find(p.exec_id);
  if (it == s.atomic_execs.end()) {
    return Error(Errc::kNotFound, "unknown atomic execution");
  }
  AtomicExec& exec = it->second;
  if (exec.status != AtomicStatus::kPending) {
    return Error(Errc::kStateConflict, "atomic execution already finished");
  }
  if (p.output.is_null()) {
    return Error(Errc::kInvalidArgument, "output CID must not be null");
  }
  auto party_it =
      std::find_if(exec.parties.begin(), exec.parties.end(),
                   [&](const AtomicParty& a) {
                     return a.subnet == party.subnet && a.addr == party.addr;
                   });
  if (party_it == exec.parties.end()) {
    return Error(Errc::kPermissionDenied, "submitter is not a party");
  }
  const std::size_t index =
      static_cast<std::size_t>(party_it - exec.parties.begin());
  exec.outputs[index] = p.output;

  if (exec.all_submitted_and_equal()) {
    // Paper Fig. 5: "The SCA waits for all the parties involved to submit
    // the output state, and checks if they all match."
    exec.status = AtomicStatus::kCommitted;
    rt.emit_event("sca/atomic-committed", encode_varint(exec.id));
    HC_TRY_STATUS(notify_atomic(rt, s, exec));
  } else if (std::none_of(exec.outputs.begin(), exec.outputs.end(),
                          [](const Cid& c) { return c.is_null(); })) {
    // Everyone submitted but the outputs disagree: abort.
    exec.status = AtomicStatus::kAborted;
    rt.emit_event("sca/atomic-aborted", encode_varint(exec.id));
    HC_TRY_STATUS(notify_atomic(rt, s, exec));
  }
  return Bytes{};
}

Result<Bytes> ScaActor::atomic_abort(Rt& rt, ScaState& s,
                                     const AtomicParty& party,
                                     const Bytes& params) {
  HC_TRY(p, decode<AtomicAbortParams>(params));
  auto it = s.atomic_execs.find(p.exec_id);
  if (it == s.atomic_execs.end()) {
    return Error(Errc::kNotFound, "unknown atomic execution");
  }
  AtomicExec& exec = it->second;
  if (exec.status != AtomicStatus::kPending) {
    return Error(Errc::kStateConflict, "atomic execution already finished");
  }
  const bool is_party =
      std::any_of(exec.parties.begin(), exec.parties.end(),
                  [&](const AtomicParty& a) {
                    return a.subnet == party.subnet && a.addr == party.addr;
                  });
  if (!is_party) {
    return Error(Errc::kPermissionDenied, "aborter is not a party");
  }
  // Paper Fig. 5: "At any point, users are allowed to abort the execution
  // by sending a message to the SCA of the parent."
  exec.status = AtomicStatus::kAborted;
  rt.emit_event("sca/atomic-aborted", encode_varint(exec.id));
  HC_TRY_STATUS(notify_atomic(rt, s, exec));
  return Bytes{};
}

Status ScaActor::notify_atomic(Rt& rt, ScaState& s, const AtomicExec& exec) {
  // Cross-net result notifications to every remote party ("subnets are
  // notified, through a cross-net message, that it is safe to incorporate
  // the output state" — paper §IV-D).
  AtomicNotice notice{exec.id, exec.status};
  for (const AtomicParty& party : exec.parties) {
    if (party.subnet == s.self) continue;
    core::CrossMsg cross;
    cross.from_subnet = s.self;
    cross.to_subnet = party.subnet;
    cross.msg.from = chain::kScaAddr;
    cross.msg.to = party.addr;
    cross.msg.method = 0;
    cross.msg.params = encode(notice);
    // Best-effort: a party subnet that has since vanished or gone inactive
    // must not block the coordinator's decision (parties also learn the
    // outcome by observing the coordinator chain's state).
    Status routed = route_out(rt, s, std::move(cross));
    if (!routed) {
      rt.emit_event("sca/atomic-notify-failed", encode(party.subnet));
    }
  }
  return ok_status();
}

}  // namespace hc::actors

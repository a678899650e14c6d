// The Subnet Coordinator Actor (SCA).
//
// Paper §III-A: "The SCA is a system actor that exposes the interface for
// subnets to interact with the hierarchical consensus protocol. ... And, as
// SAs are user-defined and untrusted, it also enforces security
// assumptions, fund management, and the cryptoeconomics of hierarchical
// consensus."
//
// One SCA exists per chain at address f02. It owns: child registration and
// collateral custody, the firewall (circulating-supply) accounting of §II,
// top-down nonce assignment and queues (§IV-A), the checkpoint window and
// cross-msg registry (§III-B, §IV-C), bottom-up meta adoption and batch
// execution (§IV-B), fraud-proof slashing (§III-B), state snapshots
// (§III-C), and atomic-execution coordination (§IV-D).
#pragma once

#include "actors/methods.hpp"
#include "actors/sca_state.hpp"
#include "chain/actor.hpp"
#include "core/fraud.hpp"

namespace hc::actors {

/// Parameters for Fund / Release / SendCross: a general cross-net call.
struct CrossParams {
  core::SubnetId dest;
  Address to;
  chain::MethodNum method = 0;
  Bytes inner_params;

  void encode_to(Encoder& e) const {
    e.obj(dest).obj(to).varint(method).bytes(inner_params);
  }
  [[nodiscard]] static Result<CrossParams> decode_from(Decoder& d) {
    CrossParams p;
    HC_TRY(dest, d.obj<core::SubnetId>());
    HC_TRY(to, d.obj<Address>());
    HC_TRY(method, d.varint());
    HC_TRY(inner, d.bytes());
    p.dest = std::move(dest);
    p.to = to;
    p.method = method;
    p.inner_params = std::move(inner);
    return p;
  }
};

struct ReleaseStakeParams {
  TokenAmount amount;
  Address recipient;

  void encode_to(Encoder& e) const { e.obj(amount).obj(recipient); }
  [[nodiscard]] static Result<ReleaseStakeParams> decode_from(Decoder& d) {
    ReleaseStakeParams p;
    HC_TRY(amount, d.obj<TokenAmount>());
    HC_TRY(recipient, d.obj<Address>());
    p.amount = amount;
    p.recipient = recipient;
    return p;
  }
};

struct KillParams {
  Address recipient;

  void encode_to(Encoder& e) const { e.obj(recipient); }
  [[nodiscard]] static Result<KillParams> decode_from(Decoder& d) {
    HC_TRY(recipient, d.obj<Address>());
    return KillParams{recipient};
  }
};

/// Implicit checkpoint-cut parameters (injected at checkpoint heights).
struct CutParams {
  chain::Epoch epoch = 0;
  Cid proof;  // CID of the block anchoring this checkpoint

  void encode_to(Encoder& e) const { e.i64(epoch).obj(proof); }
  [[nodiscard]] static Result<CutParams> decode_from(Decoder& d) {
    CutParams p;
    HC_TRY(epoch, d.i64());
    HC_TRY(proof, d.obj<Cid>());
    p.epoch = epoch;
    p.proof = proof;
    return p;
  }
};

struct ApplyBottomUpParams {
  std::uint64_t nonce = 0;
  core::CrossMsgBatch batch;

  void encode_to(Encoder& e) const { e.varint(nonce).obj(batch); }
  [[nodiscard]] static Result<ApplyBottomUpParams> decode_from(Decoder& d) {
    ApplyBottomUpParams p;
    HC_TRY(nonce, d.varint());
    HC_TRY(batch, d.obj<core::CrossMsgBatch>());
    p.nonce = nonce;
    p.batch = std::move(batch);
    return p;
  }
};

/// Fund-recovery proof (paper §III-C): ties an account entry inside a dead
/// child subnet to a checkpoint the child committed while alive. The chain
/// of trust: SCA knows the checkpoint CID -> the checkpoint names a block
/// CID (`proof`) -> the block header names a state root -> the Merkle proof
/// places (address, entry) under that root.
struct RecoverParams {
  Address sa;                        // the dead child's SA
  core::Checkpoint checkpoint;       // committed by that child
  chain::BlockHeader header;         // header behind checkpoint.proof
  Address claimed_addr;              // account inside the child
  chain::ActorEntry claimed_entry;   // its state entry
  crypto::MerkleProof proof;         // inclusion under header.state_root

  void encode_to(Encoder& e) const {
    e.obj(sa).obj(checkpoint).obj(header).obj(claimed_addr);
    e.obj(claimed_entry).vec(proof);
  }
  [[nodiscard]] static Result<RecoverParams> decode_from(Decoder& d) {
    RecoverParams p;
    HC_TRY(sa, d.obj<Address>());
    HC_TRY(cp, d.obj<core::Checkpoint>());
    HC_TRY(header, d.obj<chain::BlockHeader>());
    HC_TRY(addr, d.obj<Address>());
    HC_TRY(entry, d.obj<chain::ActorEntry>());
    HC_TRY(proof, d.vec<crypto::MerkleStep>());
    p.sa = sa;
    p.checkpoint = std::move(cp);
    p.header = header;
    p.claimed_addr = addr;
    p.claimed_entry = std::move(entry);
    p.proof = std::move(proof);
    return p;
  }
};

struct SaveParams {
  Cid state_root;

  void encode_to(Encoder& e) const { e.obj(state_root); }
  [[nodiscard]] static Result<SaveParams> decode_from(Decoder& d) {
    HC_TRY(root, d.obj<Cid>());
    return SaveParams{root};
  }
};

struct AtomicInitParams {
  std::vector<AtomicParty> parties;
  std::vector<Cid> input_cids;

  void encode_to(Encoder& e) const { e.vec(parties).vec(input_cids); }
  [[nodiscard]] static Result<AtomicInitParams> decode_from(Decoder& d) {
    AtomicInitParams p;
    HC_TRY(parties, d.vec<AtomicParty>());
    HC_TRY(inputs, d.vec<Cid>());
    p.parties = std::move(parties);
    p.input_cids = std::move(inputs);
    return p;
  }
};

struct AtomicSubmitParams {
  std::uint64_t exec_id = 0;
  Cid output;

  void encode_to(Encoder& e) const { e.varint(exec_id).obj(output); }
  [[nodiscard]] static Result<AtomicSubmitParams> decode_from(Decoder& d) {
    AtomicSubmitParams p;
    HC_TRY(id, d.varint());
    HC_TRY(output, d.obj<Cid>());
    p.exec_id = id;
    p.output = output;
    return p;
  }
};

struct AtomicAbortParams {
  std::uint64_t exec_id = 0;

  void encode_to(Encoder& e) const { e.varint(exec_id); }
  [[nodiscard]] static Result<AtomicAbortParams> decode_from(Decoder& d) {
    HC_TRY(id, d.varint());
    return AtomicAbortParams{id};
  }
};

/// Atomic-execution result notification payload (carried by the zero-value
/// notification cross-msgs the coordinator sends to party subnets).
struct AtomicNotice {
  std::uint64_t exec_id = 0;
  AtomicStatus status = AtomicStatus::kPending;

  void encode_to(Encoder& e) const {
    e.varint(exec_id).u8(static_cast<std::uint8_t>(status));
  }
  [[nodiscard]] static Result<AtomicNotice> decode_from(Decoder& d) {
    AtomicNotice n;
    HC_TRY(id, d.varint());
    HC_TRY(status, d.u8());
    if (status > 2) return Error(Errc::kDecodeError, "bad atomic status");
    n.exec_id = id;
    n.status = static_cast<AtomicStatus>(status);
    return n;
  }
};

/// Build the initial SCA state for a chain with the given identity.
/// `topdown_window_cap` configures the top-down circuit breaker
/// (DESIGN.md §14); 0 disables it. The blob carries the decoded state as
/// its memo.
[[nodiscard]] chain::StateBlob make_sca_ctor_state(
    const core::SubnetId& self, std::uint32_t checkpoint_period,
    std::uint64_t topdown_window_cap = 0);

/// Whether the top-down circuit breaker refuses new cross-msgs toward
/// `child`: the unacknowledged backlog reached the window cap. Pure
/// function of on-chain state, so every replica agrees on every shed
/// decision.
[[nodiscard]] bool breaker_open(const ScaState& s, const SubnetEntry& child);

class ScaActor final : public chain::ActorLogic {
 public:
  Result<Bytes> invoke(chain::Runtime& rt, chain::MethodNum method,
                       const Bytes& params) override;

 private:
  using Rt = chain::Runtime;

  Result<Bytes> register_subnet(Rt& rt, ScaState& s, const Bytes& params);
  Result<Bytes> add_stake(Rt& rt, ScaState& s);
  Result<Bytes> release_stake(Rt& rt, ScaState& s, const Bytes& params);
  Result<Bytes> kill_subnet(Rt& rt, ScaState& s, const Bytes& params);
  Result<Bytes> send_cross(Rt& rt, ScaState& s, const Bytes& params);
  Result<Bytes> commit_child_checkpoint(Rt& rt, ScaState& s,
                                        const Bytes& params);
  Result<Bytes> cut_checkpoint(Rt& rt, ScaState& s, const Bytes& params);
  Result<Bytes> apply_topdown(Rt& rt, ScaState& s, const Bytes& params);
  Result<Bytes> apply_bottomup(Rt& rt, ScaState& s, const Bytes& params);
  Result<Bytes> submit_fraud_proof(Rt& rt, ScaState& s, const Bytes& params);
  Result<Bytes> save_snapshot(Rt& rt, ScaState& s, const Bytes& params);
  Result<Bytes> recover_funds(Rt& rt, ScaState& s, const Bytes& params);
  Result<Bytes> atomic_init(Rt& rt, ScaState& s, const AtomicParty& initiator,
                            const Bytes& params);
  Result<Bytes> atomic_submit(Rt& rt, ScaState& s, const AtomicParty& party,
                              const Bytes& params);
  Result<Bytes> atomic_abort(Rt& rt, ScaState& s, const AtomicParty& party,
                             const Bytes& params);

  /// Deliver a cross-msg that has arrived at this subnet: execute locally,
  /// forward down toward its destination, or (rare) send back up. On local
  /// execution failure, emits the revert cross-msg of paper §IV-B.
  Status deliver(Rt& rt, ScaState& s, const core::CrossMsg& cross);

  /// Route an outbound cross-msg from this SCA: enqueue top-down (freezing
  /// value) or append to the bottom-up window (burning value).
  Status route_out(Rt& rt, ScaState& s, core::CrossMsg cross);

  /// Send result notifications for a finished atomic execution.
  Status notify_atomic(Rt& rt, ScaState& s, const AtomicExec& exec);
};

}  // namespace hc::actors

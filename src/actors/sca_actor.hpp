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

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.dest).obj(s.to).varint(s.method).bytes(s.inner_params);
  }
};

struct ReleaseStakeParams {
  TokenAmount amount;
  Address recipient;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.amount).obj(s.recipient);
  }
};

struct KillParams {
  Address recipient;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.recipient);
  }
};

/// Implicit checkpoint-cut parameters (injected at checkpoint heights).
struct CutParams {
  chain::Epoch epoch = 0;
  Cid proof;  // CID of the block anchoring this checkpoint

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.i64(s.epoch).obj(s.proof);
  }
};

struct ApplyBottomUpParams {
  std::uint64_t nonce = 0;
  core::CrossMsgBatch batch;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.varint(s.nonce).obj(s.batch);
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

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.sa).obj(s.checkpoint).obj(s.header).obj(s.claimed_addr);
    io.obj(s.claimed_entry).vec(s.proof);
  }
};

struct SaveParams {
  Cid state_root;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.state_root);
  }
};

struct AtomicInitParams {
  std::vector<AtomicParty> parties;
  std::vector<Cid> input_cids;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.vec(s.parties).vec(s.input_cids);
  }
};

struct AtomicSubmitParams {
  std::uint64_t exec_id = 0;
  Cid output;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.varint(s.exec_id).obj(s.output);
  }
};

struct AtomicAbortParams {
  std::uint64_t exec_id = 0;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.varint(s.exec_id);
  }
};

/// Atomic-execution result notification payload (carried by the zero-value
/// notification cross-msgs the coordinator sends to party subnets).
struct AtomicNotice {
  std::uint64_t exec_id = 0;
  AtomicStatus status = AtomicStatus::kPending;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.varint(s.exec_id).enumeration(s.status);
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

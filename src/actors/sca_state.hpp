// Subnet Coordinator Actor (SCA) state.
//
// Exactly one SCA exists per chain (address f02). It is the system actor
// implementing the hierarchical-consensus interface (paper §III-A): child
// subnet registration and collateral, cross-msg routing and nonces, the
// checkpoint window, the cross-msg registry for content resolution, fraud
// slashing, state snapshots, and atomic-execution coordination.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/crossmsg.hpp"
#include "core/fraud.hpp"
#include "core/params.hpp"

namespace hc::actors {

/// Parent-side bookkeeping for one registered child subnet.
struct SubnetEntry {
  core::SubnetId id;
  Address sa;  // the governing SA's address in this chain
  core::SubnetStatus status = core::SubnetStatus::kActive;
  TokenAmount collateral;
  TokenAmount min_collateral;
  /// Paper §II: tokens injected minus tokens withdrawn — the firewall bound.
  TokenAmount circulating_supply;
  /// Next nonce for top-down msgs committed toward this child (paper §IV-A:
  /// "the SCA of the source subnet (parent) increments a nonce that is
  /// unique to the top-down transaction directed to each of its childs").
  std::uint64_t topdown_nonce = 0;
  /// Committed, not-yet-garbage-collected top-down msgs for this child.
  std::vector<core::CrossMsg> topdown_queue;
  /// CIDs of checkpoints this child committed (newest last).
  std::vector<Cid> checkpoints;
  chain::Epoch last_checkpoint_epoch = -1;
  /// Addresses that already recovered stranded funds (paper §III-C);
  /// prevents double claims.
  std::vector<Address> recovered;
  /// Top-down msgs admitted since this child's last committed checkpoint —
  /// the unacknowledged backlog the circuit breaker bounds (DESIGN.md §14).
  /// Reset when the child's next checkpoint commits.
  std::uint64_t topdown_since_checkpoint = 0;
  /// Top-down msgs refused by the breaker (shed before consuming a nonce
  /// or minting circulating supply, so the firewall bound is untouched).
  /// Counts only sheds that commit: a path message forwarded here is shed
  /// and reverted inside a call that succeeds, so its increment stays; a
  /// refused fresh send fails its whole call, and the executor's journal
  /// revert rolls this increment back together with its
  /// `sca/topdown-shed` event.
  std::uint64_t topdown_shed = 0;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.id).obj(s.sa).enumeration(s.status);
    io.obj(s.collateral).obj(s.min_collateral).obj(s.circulating_supply);
    io.varint(s.topdown_nonce).vec(s.topdown_queue).vec(s.checkpoints);
    io.i64(s.last_checkpoint_epoch);
    io.vec(s.recovered);
    io.varint(s.topdown_since_checkpoint).varint(s.topdown_shed);
  }
  bool operator==(const SubnetEntry&) const = default;
};

/// Economic outcome of one accepted fraud proof, per guilty validator
/// (paper §III-B). Keyed by (subnet, epoch, signer): a second proof over
/// the same equivocation — replayed, mirrored, or assembled from a
/// different signature subset — must conflict instead of double-slashing.
struct SlashRecord {
  core::SubnetId subnet;
  chain::Epoch epoch = 0;
  crypto::PublicKey signer;
  /// Collateral share actually burned for this validator.
  TokenAmount burned;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.subnet).i64(s.epoch).obj(s.signer).obj(s.burned);
  }
  bool operator==(const SlashRecord&) const = default;
};

/// A bottom-up meta adopted by this SCA, awaiting batch execution.
struct PendingBottomUp {
  std::uint64_t nonce = 0;
  core::CrossMsgMeta meta;
  bool executed = false;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.varint(s.nonce).obj(s.meta).boolean(s.executed);
  }
  bool operator==(const PendingBottomUp&) const = default;
};

/// One party of an atomic execution (paper §IV-D).
struct AtomicParty {
  core::SubnetId subnet;
  Address addr;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.subnet).obj(s.addr);
  }
  bool operator==(const AtomicParty&) const = default;
};

enum class AtomicStatus : std::uint8_t {
  kPending = 0,
  kCommitted = 1,
  kAborted = 2,
  kLast = kAborted,
};

/// Coordinator record for one atomic execution (2PC with the SCA of the
/// least common ancestor as coordinator, paper §IV-D).
struct AtomicExec {
  std::uint64_t id = 0;
  std::vector<AtomicParty> parties;
  std::vector<Cid> input_cids;
  AtomicStatus status = AtomicStatus::kPending;
  /// outputs[i] = output CID submitted by parties[i] (null = not yet).
  std::vector<Cid> outputs;

  [[nodiscard]] bool all_submitted_and_equal() const;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.varint(s.id).vec(s.parties).vec(s.input_cids);
    io.enumeration(s.status).vec(s.outputs);
  }
  bool operator==(const AtomicExec&) const = default;
};

/// A persisted state snapshot (paper §III-C save()).
struct StateSnapshot {
  chain::Epoch epoch = 0;
  Cid state_root;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.i64(s.epoch).obj(s.state_root);
  }
  bool operator==(const StateSnapshot&) const = default;
};

struct ScaState {
  /// This chain's own subnet id (root for the rootnet).
  core::SubnetId self;
  /// This subnet's own checkpoint period (epochs).
  std::uint32_t checkpoint_period = 10;
  /// Circuit breaker (DESIGN.md §14): max top-down msgs admitted per child
  /// between its checkpoints (0 = unbounded). While a child's
  /// `topdown_since_checkpoint` is at the cap, further top-down msgs toward
  /// it are shed with kOverloaded and revert to their source (paper §IV).
  std::uint64_t topdown_window_cap = 0;
  /// Unused, always 0: a retired staleness trip that compared the
  /// parent's epoch with the child's height. Still encoded so state roots
  /// stay put; it goes with the next SCA format change.
  chain::Epoch breaker_stall_epochs = 0;

  // ------------------------------------------------ children (as parent)
  std::map<Address, SubnetEntry> subnets;  // keyed by SA address

  // -------------------------------------- own cross-msg window (as child)
  /// Bottom-up msgs buffered in the current checkpoint window.
  std::vector<core::CrossMsg> window_msgs;
  /// Metas received from children that must be forwarded upward.
  std::vector<core::CrossMsgMeta> forward_meta;
  /// Child checkpoint CIDs accumulated since our last cut.
  std::vector<core::ChildCheck> window_children;
  /// The checkpoint frozen by the last kCutCheckpoint, awaiting signatures
  /// and submission to the parent (paper Fig. 2's "signature window").
  std::optional<core::Checkpoint> pending_checkpoint;
  Cid last_own_checkpoint;
  chain::Epoch last_own_checkpoint_epoch = -1;

  /// Registry: batch CID digest bytes -> encoded CrossMsgBatch. Serves the
  /// content-resolution protocol (paper §IV-C).
  std::map<Bytes, Bytes> msg_registry;

  // --------------------------------------------- inbound cross-msg queues
  /// Next nonce to assign to an adopted bottom-up meta.
  std::uint64_t bottomup_nonce = 0;
  /// Adopted metas awaiting execution (in nonce order).
  std::vector<PendingBottomUp> pending_bottomup;
  /// Execution cursors.
  std::uint64_t applied_bottomup_nonce = 0;
  std::uint64_t applied_topdown_nonce = 0;

  // --------------------------------------------------- atomic executions
  std::uint64_t next_exec_id = 1;
  std::map<std::uint64_t, AtomicExec> atomic_execs;

  // ------------------------------------------------------------ snapshots
  std::vector<StateSnapshot> snapshots;

  // ------------------------------------------------------------- slashing
  /// Digests of accepted fraud proofs (replay/mirror dedup).
  std::vector<Cid> fraud_digests;
  /// One record per slashed (subnet, epoch, signer).
  std::vector<SlashRecord> slash_records;

  /// Whether a slash record for (subnet, epoch, signer) already exists.
  [[nodiscard]] bool slashed(const core::SubnetId& subnet, chain::Epoch epoch,
                             const crypto::PublicKey& signer) const;

  [[nodiscard]] const SubnetEntry* find_subnet(const Address& sa) const;
  [[nodiscard]] SubnetEntry* find_subnet(const Address& sa);
  /// The direct child entry on the path toward `dest` (nullptr if none).
  [[nodiscard]] SubnetEntry* child_toward(const core::SubnetId& dest);

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.self).u32(s.checkpoint_period).map(s.subnets, 1u << 16);
    io.vec(s.window_msgs).vec(s.forward_meta).vec(s.window_children);
    io.opt(s.pending_checkpoint);
    io.obj(s.last_own_checkpoint).i64(s.last_own_checkpoint_epoch);
    io.map(s.msg_registry, 1u << 20);
    io.varint(s.bottomup_nonce).vec(s.pending_bottomup);
    io.varint(s.applied_bottomup_nonce).varint(s.applied_topdown_nonce);
    io.varint(s.next_exec_id).map(s.atomic_execs, 1u << 16);
    io.vec(s.snapshots);
    io.vec(s.fraud_digests).vec(s.slash_records);
    io.varint(s.topdown_window_cap).i64(s.breaker_stall_epochs);
  }
  bool operator==(const ScaState&) const = default;
};

}  // namespace hc::actors

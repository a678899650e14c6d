// The checkpoint duty of one validator (paper §III-B, Fig. 2): sign each
// cut checkpoint, pool the subnet's signature shares, submit the checkpoint
// to the parent SA once its signing policy is met, and report equivocation
// to the parent SCA as a fraud proof.
//
// CheckpointWatcher is the equivocation index behind those reports (cf.
// Tendermint's evidence pool and "BFT Protocol Forensics"). Every node
// feeds it verified signature shares from the sigs topic and checkpoint
// contents it can attribute to a cid (its own deterministic cut, or content
// carried inside a SigGossip envelope). One signer behind two cids for the
// same epoch is equivocation; once both contents are known the watcher
// assembles a core::FraudProof carrying the overlapping signatures, one per
// offence — on-chain dedup against N racing watchers is the SCA's job.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "actors/sa_state.hpp"
#include "chain/message.hpp"
#include "consensus/engine.hpp"
#include "core/fraud.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "sim/rng.hpp"

namespace hc::runtime {

struct NodeConfig;
class SubnetNode;

/// A gossiped checkpoint signature share (paper Fig. 2's signature window).
struct SigShare {
  chain::Epoch epoch = 0;
  Cid checkpoint_cid;
  crypto::PublicKey signer;
  crypto::Signature signature;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.i64(s.epoch).obj(s.checkpoint_cid).obj(s.signer).obj(s.signature);
  }
};

/// Envelope gossiped on the signatures topic: the share plus, optionally,
/// the full checkpoint content behind share.checkpoint_cid. Honest signers
/// omit the content — every replica reconstructs the cut deterministically
/// from its own chain. Carrying it lets any observer attribute a signature
/// over a checkpoint it never cut itself, which is exactly the evidence an
/// equivocation watcher needs to assemble a core::FraudProof (content is
/// self-authenticating: accepted only when it hashes to the claimed cid).
struct SigGossip {
  SigShare share;
  std::optional<core::Checkpoint> checkpoint;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.share).opt(s.checkpoint);
  }
};

/// Exponential backoff + jitter state, in block heights. A fresh (or
/// restarted) node starts at attempt 0: its first attempt is immediate.
struct RetryState {
  std::uint32_t attempts = 0;
  chain::Epoch next_height = 0;  // retry allowed once head >= this
};

/// Schedule the next attempt: period * 2^min(attempts, 3) plus uniform
/// jitter in [0, period), period = max(1, checkpoint_period) blocks. `rng`
/// is the node's one jitter stream, shared by pulls and the duty.
void arm_retry(RetryState& retry, chain::Epoch head,
               std::uint32_t checkpoint_period, sim::Rng& rng);

/// Trace-flow key of one checkpoint pipeline stage of `source`'s
/// checkpoint at `epoch`: "cp" (cut to parent commit), "cpsign" (cut to
/// first submission), "cpsub" (submission to parent commit).
[[nodiscard]] std::string checkpoint_flow_key(const char* stage,
                                              const core::SubnetId& source,
                                              chain::Epoch epoch);

class CheckpointWatcher {
 public:
  /// Cap on distinct epochs of evidence retained at once. When a new epoch
  /// would exceed it the oldest tracked epoch is evicted — deterministic,
  /// since the evidence map is ordered. Protects the watcher from unbounded
  /// growth when parent acceptance stalls and the prune_below horizon stops
  /// advancing (DESIGN.md §14).
  static constexpr std::size_t kMaxEpochs = 64;

  /// Record checkpoint content attributable to its cid. Returns any fraud
  /// proofs this observation completes.
  [[nodiscard]] std::vector<core::FraudProof> record_checkpoint(
      const core::Checkpoint& cp);

  /// Record one signature share already verified against the cid it
  /// claims. Returns any fraud proofs this observation completes.
  [[nodiscard]] std::vector<core::FraudProof> record_share(
      const SigShare& share);

  /// Drop evidence for epochs below `epoch` (bounded memory; the caller
  /// keeps a horizon of a few periods behind parent acceptance so late
  /// forged shares for recently-accepted epochs stay provable).
  void prune_below(chain::Epoch epoch);

 private:
  struct EpochEvidence {
    /// cid digest bytes -> checkpoint content (once attributable).
    std::map<Bytes, core::Checkpoint> contents;
    /// cid digest bytes -> signer key bytes -> signature.
    std::map<Bytes, std::map<Bytes, core::CheckpointSignature>> sigs;
  };

  /// Scan every cid pair of `epoch` for overlapping signers not yet
  /// reported whose contents are both known; assemble one proof per pair.
  [[nodiscard]] std::vector<core::FraudProof> try_assemble(chain::Epoch epoch);

  /// Make room for evidence at `epoch` under the retention cap, evicting
  /// the oldest tracked epochs if needed. Returns false when the arrival
  /// itself is older than everything retained and must be shed instead.
  [[nodiscard]] bool reserve_epoch(chain::Epoch epoch);

  std::map<chain::Epoch, EpochEvidence> evidence_;
  /// (epoch, signer key bytes) pairs already covered by an emitted proof.
  std::set<std::pair<chain::Epoch, Bytes>> reported_;
};

/// Trace-flow key of one provable offence: `signer` signed two checkpoints
/// of `subnet` for `epoch`. Opened where fraud is injected, closed when the
/// slash for it lands on the parent chain (fraud_detection_latency_us).
[[nodiscard]] std::string fraud_flow_key(const core::SubnetId& subnet,
                                         chain::Epoch epoch,
                                         const Address& signer);

class CheckpointDuty;

/// A test-side hook that drives one validator's checkpoint duty off the
/// honest path (DESIGN.md §10). The node stays honest everywhere else —
/// consensus, validation, the watcher above — and the duty calls the hook
/// at three points. Implementations live in src/chaos/.
class CheckpointAdversary {
 public:
  CheckpointAdversary() = default;
  CheckpointAdversary(const CheckpointAdversary&) = delete;
  CheckpointAdversary& operator=(const CheckpointAdversary&) = delete;
  virtual ~CheckpointAdversary() = default;

  /// True while the validator signs no share and submits no checkpoint.
  [[nodiscard]] virtual bool withholds() const { return false; }
  /// A checkpoint `cp` was freshly cut; the honest share (unless withheld)
  /// has already gone out. The hook acts through `duty`'s own helpers.
  virtual void on_cut(CheckpointDuty& duty, const core::Checkpoint& cp) = 0;
  /// The parent SA accepted `accepted` as its latest checkpoint, carrying
  /// the shares this node pooled for it before it erases them.
  virtual void on_accepted(const core::SignedCheckpoint& /*accepted*/) {}
};

/// One node's checkpoint duty, owned by its SubnetNode, which calls it at
/// each cut, on the sigs topic, once per commit and from WAL replay. A
/// non-validator only indexes evidence. The parent is read only through
/// its published view (DESIGN.md §11), so two submissions in one window
/// carry the same parent-chain nonce.
class CheckpointDuty {
 public:
  /// The reference arguments must outlive the duty. `parent` is the owning
  /// node's parent-view pointer itself, so attach_parent re-points both.
  CheckpointDuty(const NodeConfig& config, net::Network& network,
                 net::NodeId node, crypto::KeyPair key,
                 consensus::ValidatorSet validators,
                 SubnetNode* const& parent, sim::Rng& retry_rng);

  /// A `sca/checkpoint-cut` event committed at height `head`.
  void on_cut(const core::Checkpoint& cp, chain::Epoch head);
  void on_gossip(const SigGossip& gossip, chain::Epoch head);
  /// Once per commit, after the node's content pulls.
  void on_commit(chain::Epoch head);
  /// A cut replayed from the WAL at boot.
  void restore(const core::Checkpoint& cp);

  /// Sign `cp` and gossip the share with its content attached, so every
  /// watcher can attribute the signed CID.
  void gossip_share_with_content(const core::Checkpoint& cp);
  /// Sign a message from this validator's parent-chain account and publish
  /// it on the parent's msgs topic (no-op without a parent view).
  void submit_to_parent(const Address& to, chain::MethodNum method,
                        Bytes params);
  [[nodiscard]] net::NodeId node() const { return node_; }
  /// This validator's account (the checkpoint signer).
  [[nodiscard]] const Address& address() const { return address_; }
  [[nodiscard]] obs::Obs& obs() { return network_.obs(); }

  /// Arm (or clear, with nullptr) an adversary. Fault plans flip it at
  /// runtime; it is not carried over a crash-restart.
  void set_adversary(std::unique_ptr<CheckpointAdversary> adversary) {
    adversary_ = std::move(adversary);
  }
  /// Fraud proofs assembled and not yet seen resolved on-chain.
  [[nodiscard]] std::size_t pending_fraud_proofs() const {
    return pending_proofs_.size();
  }
  [[nodiscard]] std::uint64_t checkpoints_cut() const {
    return c_checkpoints_cut_->value();
  }
  [[nodiscard]] std::uint64_t checkpoints_submitted() const {
    return c_checkpoints_submitted_->value();
  }

 private:
  /// A cut checkpoint with its CID, hashed once at the cut: every share
  /// received and every submission attempt compares against it.
  struct Cut {
    core::Checkpoint checkpoint;
    Cid cid;
  };
  struct PendingProof {
    core::FraudProof proof;
    std::vector<crypto::PublicKey> guilty;
    chain::Epoch detected_at = 0;
    RetryState retry;
  };

  [[nodiscard]] std::shared_ptr<const actors::SaState> parent_sa() const;
  [[nodiscard]] bool withholds() const {
    return adversary_ != nullptr && adversary_->withholds();
  }

  /// Sign `cut`, pool the share, feed it to the watcher and gossip it.
  void sign_and_gossip_share(const Cut& cut, chain::Epoch head);
  /// `cut` with the pooled shares that sign exactly its CID, optionally
  /// restricted to `signers`.
  [[nodiscard]] core::SignedCheckpoint pooled_signatures(
      const Cut& cut, const std::vector<crypto::PublicKey>* signers) const;

  /// Prune what `sa` accepted; as the designated submitter, submit the
  /// earliest outstanding checkpoint once its shares meet `sa`'s policy.
  void submit_checkpoint(const actors::SaState* sa, chain::Epoch head);
  /// Re-gossip our share of a stalled checkpoint under backoff, so shares
  /// lost to partitions or crashes resurface after heal.
  void regossip_share(chain::Epoch head);
  /// Register freshly assembled fraud proofs (watcher output) for
  /// submission; dedups by proof digest.
  void on_fraud_proofs(std::vector<core::FraudProof> proofs, chain::Epoch head);
  void submit_fraud_proofs(const actors::SaState* sa, chain::Epoch head);

  const NodeConfig& config_;
  net::Network& network_;
  const net::NodeId node_;
  const crypto::KeyPair key_;
  const consensus::ValidatorSet validators_;
  SubnetNode* const& parent_;
  sim::Rng& retry_rng_;
  const Address address_;
  const std::optional<std::size_t> index_;  // empty on a non-validator
  /// Checkpoint period in blocks, at least 1 (retry and rotation unit).
  const chain::Epoch period_;

  /// Signature shares collected for pending checkpoints: epoch -> signer
  /// pubkey bytes -> share.
  std::map<chain::Epoch, std::map<Bytes, SigShare>> sig_shares_;
  /// Checkpoints cut by this chain that the parent SA has not (yet)
  /// accepted; rebuilt deterministically from block events on catch-up.
  std::map<chain::Epoch, Cut> cut_checkpoints_;
  std::map<chain::Epoch, RetryState> submit_retry_;
  std::map<chain::Epoch, RetryState> share_retry_;
  CheckpointWatcher watcher_;
  std::unique_ptr<CheckpointAdversary> adversary_;
  /// Keyed by proof digest bytes; entries drop once every accused signer
  /// left the parent SA's validator set (slash landed, or they left).
  std::map<Bytes, PendingProof> pending_proofs_;

  obs::Counter* c_checkpoints_cut_;
  obs::Counter* c_checkpoints_submitted_;
  obs::Counter* c_checkpoint_retries_;
  obs::Counter* c_share_regossips_;
  obs::Counter* c_fraud_detected_;
  obs::Counter* c_fraud_submitted_;
};

}  // namespace hc::runtime

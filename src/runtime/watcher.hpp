// CheckpointWatcher: autonomous equivocation detection over checkpoint
// signature gossip (paper §III-B fraud proofs; cf. Tendermint's evidence
// pool and the accountability analysis in "BFT Protocol Forensics").
//
// Every node feeds the watcher two evidence streams: verified signature
// shares from the subnet's sigs topic (epoch, cid, signer, signature) and
// checkpoint contents it can attribute to a cid (its own deterministic
// cut, or content carried inside a SigGossip envelope). One signer behind
// two cids for the same epoch is equivocation; once the contents of both
// sides are known the watcher assembles a core::FraudProof carrying the
// overlapping signatures. Per-(epoch, signer) dedup ensures one proof per
// offence per watcher — on-chain dedup against N racing watchers is the
// SCA's job (fraud digests + slash records).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chain/message.hpp"
#include "core/fraud.hpp"
#include "obs/obs.hpp"
#include "sim/latency.hpp"

namespace hc::runtime {

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
      chain::Epoch epoch, const Cid& cid, const crypto::PublicKey& signer,
      const crypto::Signature& signature);

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

/// A test-side hook that drives one validator's checkpoint duty off the
/// honest path (DESIGN.md §10). The node stays honest everywhere else —
/// consensus, validation, the watcher above — and calls the hook at three
/// points of its duty. Implementations live in src/chaos/.
class CheckpointAdversary {
 public:
  /// What a hook may use of its node: identity, exports and the node's
  /// own duty helpers. Valid for the duration of one hook call.
  struct Context {
    sim::NodeId node;
    const core::SubnetId& subnet;
    Address address;  ///< this validator's account (the checkpoint signer)
    const Address& sa_in_parent;  ///< this subnet's SA on the parent chain
    obs::Obs& obs;
    /// Sign a checkpoint and gossip the share with its content attached,
    /// so every watcher can attribute the signed CID.
    std::function<void(const core::Checkpoint&)> gossip_share_with_content;
    /// Sign and publish a message to `to` on the parent chain.
    std::function<void(const Address& to, chain::MethodNum, Bytes params)>
        submit_to_parent;
  };

  CheckpointAdversary() = default;
  CheckpointAdversary(const CheckpointAdversary&) = delete;
  CheckpointAdversary& operator=(const CheckpointAdversary&) = delete;
  virtual ~CheckpointAdversary() = default;

  /// True while the validator signs no share and submits no checkpoint.
  [[nodiscard]] virtual bool withholds() const { return false; }
  /// A checkpoint `cp` was freshly cut; the honest share (unless withheld)
  /// has already gone out.
  virtual void on_cut(const Context& ctx, const core::Checkpoint& cp) = 0;
  /// The parent SA accepted `accepted` as its latest checkpoint, carrying
  /// the shares this node pooled for it before it erases them.
  virtual void on_accepted(const core::SignedCheckpoint& /*accepted*/) {}
};

}  // namespace hc::runtime

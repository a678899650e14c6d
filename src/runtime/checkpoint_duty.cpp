#include "runtime/checkpoint_duty.hpp"

#include <algorithm>

#include "actors/methods.hpp"
#include "common/log.hpp"
#include "crypto/sigcache.hpp"
#include "obs/profile.hpp"
#include "runtime/node.hpp"
#include "runtime/resolution.hpp"

namespace hc::runtime {

namespace {

/// The one profiler phase every CheckpointDuty entry point runs under.
obs::PhaseId checkpoint_phase() {
  static const obs::PhaseId phase =
      obs::Profiler::instance().phase("runtime/checkpoint");
  return phase;
}

/// Which of `n` candidates is designated at `head` for a duty that started
/// at `since`: `seed` picks the first, and the designation rotates onward
/// every further `period` of silence, so a stalled duty (partition, crashed
/// designee) eventually reaches a live validator.
std::size_t designated(std::uint64_t seed, chain::Epoch since,
                       chain::Epoch head, chain::Epoch period, std::size_t n) {
  const std::uint64_t periods_waited =
      static_cast<std::uint64_t>(std::max<chain::Epoch>(0, head - since)) /
      static_cast<std::uint64_t>(period);
  return static_cast<std::size_t>((seed + periods_waited) % n);
}

/// `key`'s signature share over `cp`, whose CID is `cid`.
SigShare sign_share(const core::Checkpoint& cp, const Cid& cid,
                    const crypto::KeyPair& key) {
  return SigShare{cp.epoch, cid, key.public_key(),
                  key.sign(core::SignedCheckpoint::signing_payload_for(cid))};
}

}  // namespace

void arm_retry(RetryState& retry, chain::Epoch head,
               std::uint32_t checkpoint_period, sim::Rng& rng) {
  constexpr std::uint32_t kMaxBackoffShift = 3;  // 1,2,4,8 periods, capped
  const chain::Epoch period = std::max<chain::Epoch>(1, checkpoint_period);
  const auto shift = std::min(retry.attempts, kMaxBackoffShift);
  ++retry.attempts;
  const auto jitter = static_cast<chain::Epoch>(
      rng.uniform(static_cast<std::uint64_t>(period)));
  retry.next_height = head + (period << shift) + jitter;
}

std::string checkpoint_flow_key(const char* stage,
                                const core::SubnetId& source,
                                chain::Epoch epoch) {
  return std::string(stage) + ":" + source.to_string() + ":" +
         std::to_string(epoch);
}

std::string fraud_flow_key(const core::SubnetId& subnet, chain::Epoch epoch,
                           const Address& signer) {
  return "fraud:" + subnet.to_string() + ":" + std::to_string(epoch) + ":" +
         signer.to_string();
}

bool CheckpointWatcher::reserve_epoch(chain::Epoch epoch) {
  if (evidence_.contains(epoch)) return true;
  while (evidence_.size() >= kMaxEpochs) {
    auto oldest = evidence_.begin();
    // The arrival is older than everything retained: shed it rather than
    // displacing fresher evidence.
    if (oldest->first >= epoch) return false;
    evidence_.erase(oldest);
  }
  return true;
}

std::vector<core::FraudProof> CheckpointWatcher::record_checkpoint(
    const core::Checkpoint& cp) {
  if (!reserve_epoch(cp.epoch)) return {};
  auto& ev = evidence_[cp.epoch];
  const Bytes key = cp.cid().digest_bytes();
  if (ev.contents.contains(key)) return {};
  ev.contents.emplace(key, cp);
  return try_assemble(cp.epoch);
}

std::vector<core::FraudProof> CheckpointWatcher::record_share(
    const SigShare& share) {
  if (!reserve_epoch(share.epoch)) return {};
  auto& ev = evidence_[share.epoch];
  ev.sigs[share.checkpoint_cid.digest_bytes()][share.signer.to_bytes()] =
      core::CheckpointSignature{share.signer, share.signature};
  return try_assemble(share.epoch);
}

std::vector<core::FraudProof> CheckpointWatcher::try_assemble(
    chain::Epoch epoch) {
  auto ev_it = evidence_.find(epoch);
  if (ev_it == evidence_.end()) return {};
  EpochEvidence& ev = ev_it->second;

  std::vector<core::FraudProof> proofs;
  // Ordered maps make the pair scan — and thus proof content — fully
  // deterministic across replicas observing the same evidence.
  for (auto a = ev.sigs.begin(); a != ev.sigs.end(); ++a) {
    auto b = a;
    for (++b; b != ev.sigs.end(); ++b) {
      auto ca = ev.contents.find(a->first);
      auto cb = ev.contents.find(b->first);
      if (ca == ev.contents.end() || cb == ev.contents.end()) continue;
      std::vector<Bytes> guilty;
      for (const auto& [signer_bytes, sig] : a->second) {
        if (!b->second.contains(signer_bytes)) continue;
        if (reported_.contains({epoch, signer_bytes})) continue;
        guilty.push_back(signer_bytes);
      }
      if (guilty.empty()) continue;
      core::FraudProof proof;
      proof.first.checkpoint = ca->second;
      proof.second.checkpoint = cb->second;
      for (const Bytes& g : guilty) {
        proof.first.signatures.push_back(a->second.at(g));
        proof.second.signatures.push_back(b->second.at(g));
        reported_.insert({epoch, g});
      }
      proofs.push_back(std::move(proof));
    }
  }
  return proofs;
}

void CheckpointWatcher::prune_below(chain::Epoch epoch) {
  evidence_.erase(evidence_.begin(), evidence_.lower_bound(epoch));
  // reported_ is ordered by epoch first: drop from the front.
  while (!reported_.empty() && reported_.begin()->first < epoch) {
    reported_.erase(reported_.begin());
  }
}

// ------------------------------------------------------- CheckpointDuty

CheckpointDuty::CheckpointDuty(const NodeConfig& config,
                               net::Network& network, net::NodeId node,
                               crypto::KeyPair key,
                               consensus::ValidatorSet validators,
                               SubnetNode* const& parent, sim::Rng& retry_rng)
    : config_(config),
      network_(network),
      node_(node),
      key_(std::move(key)),
      validators_(std::move(validators)),
      parent_(parent),
      retry_rng_(retry_rng),
      address_(Address::key(key_.public_key().to_bytes())),
      index_(validators_.index_of(key_.public_key())),
      period_(std::max<chain::Epoch>(1, config.params.checkpoint_period)) {
  const obs::Labels labels{{"node", std::to_string(node_)},
                           {"subnet", config_.subnet.to_string()}};
  auto& m = network_.obs().metrics;
  c_checkpoints_cut_ = &m.counter("node_checkpoints_cut_total", labels);
  c_checkpoints_submitted_ =
      &m.counter("node_checkpoints_submitted_total", labels);
  c_checkpoint_retries_ =
      &m.counter("node_checkpoint_retries_total", labels);
  c_share_regossips_ = &m.counter("node_share_regossips_total", labels);
  c_fraud_detected_ = &m.counter("node_fraud_detected_total", labels);
  c_fraud_submitted_ =
      &m.counter("node_fraud_proofs_submitted_total", labels);
}

std::shared_ptr<const actors::SaState> CheckpointDuty::parent_sa() const {
  if (parent_ == nullptr) return nullptr;
  return parent_->sa_state_view(config_.sa_in_parent);
}

// ------------------------------------------------------------ entry points

void CheckpointDuty::on_cut(const core::Checkpoint& cp, chain::Epoch head) {
  obs::ProfileScope prof(checkpoint_phase());
  c_checkpoints_cut_->inc();
  const Cut& cut = cut_checkpoints_[cp.epoch] = Cut{cp, cp.cid()};
  // Every full node attributes its own deterministic cut content to its
  // cid; gossiped shares attach to it in the watcher.
  on_fraud_proofs(watcher_.record_checkpoint(cp), head);
  if (!index_.has_value()) return;
  // Paper Fig. 2: a signature window opens for the cut checkpoint.
  if (!withholds()) sign_and_gossip_share(cut, head);
  if (adversary_ != nullptr) adversary_->on_cut(*this, cp);
}

void CheckpointDuty::on_gossip(const SigGossip& gossip, chain::Epoch head) {
  obs::ProfileScope prof(checkpoint_phase());
  const SigShare& share = gossip.share;
  if (!validators_.index_of(share.signer).has_value()) return;
  // Shares sign the cid digest, so they verify against the cid they CLAIM
  // — no content needed. A valid signature over a checkpoint we never cut
  // is attributable evidence of a second side, exactly what the
  // equivocation watcher indexes.
  if (!crypto::verify_cached(
          share.signer,
          core::SignedCheckpoint::signing_payload_for(share.checkpoint_cid),
          share.signature)) {
    return;
  }
  // Carried content is self-authenticating: admit it only when it hashes
  // to the claimed cid and targets this subnet's epoch.
  if (gossip.checkpoint.has_value() &&
      gossip.checkpoint->source == config_.subnet &&
      gossip.checkpoint->epoch == share.epoch &&
      gossip.checkpoint->cid() == share.checkpoint_cid) {
    on_fraud_proofs(watcher_.record_checkpoint(*gossip.checkpoint), head);
  }
  on_fraud_proofs(watcher_.record_share(share), head);
  // The honest aggregation path only pools shares matching our own
  // deterministic record of that epoch's cut.
  auto cut_it = cut_checkpoints_.find(share.epoch);
  if (cut_it == cut_checkpoints_.end()) return;
  if (cut_it->second.cid != share.checkpoint_cid) return;
  sig_shares_[share.epoch][share.signer.to_bytes()] = share;
  if (sig_shares_.size() > 64) sig_shares_.erase(sig_shares_.begin());
  if (index_.has_value()) submit_checkpoint(parent_sa().get(), head);
}

void CheckpointDuty::on_commit(chain::Epoch head) {
  obs::ProfileScope prof(checkpoint_phase());
  if (!index_.has_value()) return;
  // One read of the parent SA serves the whole tick.
  const auto sa = parent_sa();
  submit_checkpoint(sa.get(), head);
  regossip_share(head);
  submit_fraud_proofs(sa.get(), head);
}

void CheckpointDuty::restore(const core::Checkpoint& cp) {
  obs::ProfileScope prof(checkpoint_phase());
  // Epochs the parent has since accepted get pruned by the first
  // submit_checkpoint().
  cut_checkpoints_[cp.epoch] = Cut{cp, cp.cid()};
}

// ------------------------------------------------------- share and submit

void CheckpointDuty::sign_and_gossip_share(const Cut& cut,
                                           chain::Epoch head) {
  const SigShare share = sign_share(cut.checkpoint, cut.cid, key_);
  sig_shares_[share.epoch][share.signer.to_bytes()] = share;
  on_fraud_proofs(watcher_.record_share(share), head);
  network_.publish(node_, Topics::signatures(config_.subnet),
                   encode(SigGossip{share, std::nullopt}));
}

void CheckpointDuty::gossip_share_with_content(const core::Checkpoint& cp) {
  network_.publish(node_, Topics::signatures(config_.subnet),
                   encode(SigGossip{sign_share(cp, cp.cid(), key_), cp}));
}

core::SignedCheckpoint CheckpointDuty::pooled_signatures(
    const Cut& cut, const std::vector<crypto::PublicKey>* signers) const {
  core::SignedCheckpoint sc;
  sc.checkpoint = cut.checkpoint;
  const auto shares_it = sig_shares_.find(cut.checkpoint.epoch);
  if (shares_it == sig_shares_.end()) return sc;
  for (const auto& [signer_bytes, share] : shares_it->second) {
    if (share.checkpoint_cid != cut.cid) continue;
    if (signers != nullptr &&
        std::find(signers->begin(), signers->end(), share.signer) ==
            signers->end()) {
      continue;
    }
    sc.signatures.push_back(
        core::CheckpointSignature{share.signer, share.signature});
  }
  return sc;
}

void CheckpointDuty::submit_to_parent(const Address& to,
                                      chain::MethodNum method, Bytes params) {
  if (parent_ == nullptr) return;
  chain::Message m;
  m.from = address_;
  m.to = to;
  m.nonce = parent_->account_nonce_view(address_);
  m.method = method;
  m.params = std::move(params);
  m.gas_limit = 1u << 26;
  m.gas_price = TokenAmount::atto(1);
  network_.publish(node_, Topics::msgs(*config_.subnet.parent()),
                   encode(chain::SignedMessage::sign(std::move(m), key_)));
}

void CheckpointDuty::submit_checkpoint(const actors::SaState* sa,
                                       chain::Epoch head) {
  // Prune checkpoints the parent SA has accepted, then pick the EARLIEST
  // outstanding one (prev-linkage forces in-order acceptance).
  if (sa == nullptr) return;
  while (!cut_checkpoints_.empty() &&
         cut_checkpoints_.begin()->first <= sa->last_checkpoint_epoch) {
    const chain::Epoch accepted = cut_checkpoints_.begin()->first;
    if (adversary_ != nullptr && accepted == sa->last_checkpoint_epoch) {
      adversary_->on_accepted(
          pooled_signatures(cut_checkpoints_.begin()->second, nullptr));
    }
    submit_retry_.erase(accepted);
    share_retry_.erase(accepted);
    sig_shares_.erase(accepted);
    cut_checkpoints_.erase(cut_checkpoints_.begin());
  }
  // Bounded watcher memory: keep a few periods behind parent acceptance so
  // late forged shares for recently-accepted epochs stay provable.
  if (sa->last_checkpoint_epoch > 4 * period_) {
    watcher_.prune_below(sa->last_checkpoint_epoch - 4 * period_);
  }
  // A withholding validator never volunteers for submission duty either.
  if (withholds()) return;
  if (cut_checkpoints_.empty()) return;
  const Cut& cut = cut_checkpoints_.begin()->second;
  const core::Checkpoint& cp = cut.checkpoint;

  // Designated submitter rotates per checkpoint.
  const auto seed = static_cast<std::uint64_t>(cp.epoch / period_);
  if (*index_ != designated(seed, cp.epoch, head, period_,
                            validators_.size())) {
    return;
  }

  // Back off re-submissions exponentially (with jitter) instead of
  // hammering the parent chain every block while acceptance stalls.
  RetryState& retry = submit_retry_[cp.epoch];
  if (retry.attempts > 0 && head < retry.next_height) return;

  // Collect this epoch's signature shares for exactly this checkpoint CID,
  // restricted to signers the SA currently registers (the validator set in
  // the SA changes on leave/slash; stale signers would fail its policy).
  const auto sa_keys = sa->validator_keys();
  const core::SignedCheckpoint sc = pooled_signatures(cut, &sa_keys);
  // Read the threshold from the SA's LIVE policy, not the static node
  // config: slashing shrinks the validator set and clamps the policy with
  // it (a 3-of-3 subnet that loses a validator becomes 2-of-2, not wedged).
  if (sc.signatures.size() < sa->params.checkpoint_policy.required()) return;

  // Submit to the SA on the parent chain, paid from this validator's
  // parent-chain account (paper §III-B: "checkpoints from /root/A/B are
  // committed to the SA B of the subnet chain /root/A").
  submit_to_parent(config_.sa_in_parent, actors::sa_method::kSubmitCheckpoint,
                   encode(sc));
  if (retry.attempts > 0) c_checkpoint_retries_->inc();
  arm_retry(retry, head, config_.params.checkpoint_period, retry_rng_);
  c_checkpoints_submitted_->inc();
  // Signature collection ends at the (first) submission; acceptance by the
  // parent SA closes the cpsub leg in the node's observe_cross_event().
  auto& tracer = obs().tracer;
  if (auto d = tracer.flow_end(
          checkpoint_flow_key("cpsign", cp.source, cp.epoch))) {
    obs().metrics
        .histogram("checkpoint_sign_latency_us",
                   obs::Labels{{"subnet", cp.source.to_string()}})
        .observe(*d);
  }
  tracer.flow_begin(checkpoint_flow_key("cpsub", cp.source, cp.epoch),
                    "checkpoint.submit", cp.source.to_string(),
                    {{"epoch", std::to_string(cp.epoch)}});
}

void CheckpointDuty::regossip_share(chain::Epoch head) {
  if (cut_checkpoints_.empty()) return;
  const chain::Epoch epoch = cut_checkpoints_.begin()->first;
  if (config_.disk != nullptr &&
      !sig_shares_[epoch].contains(key_.public_key().to_bytes()) &&
      !withholds()) {
    // Recovered duty (§15): WAL replay restored this cut but our share
    // died with the process (the constructor replays silently). Re-sign
    // the SAME cid — byte-identical signature, idempotent, NOT
    // equivocation — so small validator sets can still reach threshold.
    sign_and_gossip_share(cut_checkpoints_.begin()->second, head);
  }
  auto shares_it = sig_shares_.find(epoch);
  if (shares_it == sig_shares_.end()) return;
  auto own_it = shares_it->second.find(key_.public_key().to_bytes());
  if (own_it == shares_it->second.end()) return;
  RetryState& retry = share_retry_[epoch];
  if (retry.attempts == 0) {
    // The original share went out at cut time; only re-gossip once the
    // checkpoint has been stuck for a full backoff interval.
    arm_retry(retry, epoch, config_.params.checkpoint_period, retry_rng_);
    return;
  }
  if (head < retry.next_height) return;
  network_.publish(node_, Topics::signatures(config_.subnet),
                   encode(SigGossip{own_it->second, std::nullopt}));
  c_share_regossips_->inc();
  arm_retry(retry, head, config_.params.checkpoint_period, retry_rng_);
}

// ---------------------------------------------------------- fraud reports

void CheckpointDuty::on_fraud_proofs(std::vector<core::FraudProof> proofs,
                                     chain::Epoch head) {
  bool added = false;
  for (auto& proof : proofs) {
    auto guilty_r = proof.guilty_signers();
    if (!guilty_r) continue;  // watcher output always validates; belt+braces
    Bytes key = proof.digest().digest_bytes();
    if (pending_proofs_.contains(key)) continue;
    c_fraud_detected_->inc();
    LogLine(LogLevel::kWarn, config_.subnet.to_string())
            .kv("epoch", proof.first.checkpoint.epoch)
            .kv("signers", guilty_r.value().size())
        << "checkpoint equivocation detected";
    PendingProof pending;
    pending.proof = std::move(proof);
    pending.guilty = std::move(guilty_r).value();
    pending.detected_at = head;
    pending_proofs_.emplace(std::move(key), std::move(pending));
    added = true;
  }
  if (added && index_.has_value()) {
    submit_fraud_proofs(parent_sa().get(), head);
  }
}

void CheckpointDuty::submit_fraud_proofs(const actors::SaState* sa,
                                         chain::Epoch head) {
  if (pending_proofs_.empty() || sa == nullptr) return;
  const auto sa_keys = sa->validator_keys();

  for (auto it = pending_proofs_.begin(); it != pending_proofs_.end();) {
    PendingProof& pending = it->second;
    // Resolved: every accused signer left the SA's validator set (our
    // proof — or a peer's equivalent one — landed, or they left on their
    // own). The SCA keeps the durable dedup; local state can forget.
    const bool any_left = std::any_of(
        pending.guilty.begin(), pending.guilty.end(),
        [&](const crypto::PublicKey& k) {
          return std::find(sa_keys.begin(), sa_keys.end(), k) !=
                 sa_keys.end();
        });
    if (!any_left) {
      it = pending_proofs_.erase(it);
      continue;
    }
    // Designated reporter, deterministic over the NON-guilty validators
    // and seeded by the proof digest: N honest watchers converge on one
    // submitter instead of racing N copies on-chain.
    std::vector<crypto::PublicKey> honest;
    for (const auto& v : validators_.members()) {
      if (std::find(pending.guilty.begin(), pending.guilty.end(), v.key) ==
          pending.guilty.end()) {
        honest.push_back(v.key);
      }
    }
    RetryState& retry = pending.retry;
    if (!honest.empty() &&
        honest[designated(it->first.front(), pending.detected_at, head,
                          period_, honest.size())] == key_.public_key() &&
        (retry.attempts == 0 || head >= retry.next_height)) {
      submit_to_parent(chain::kScaAddr, actors::sca_method::kSubmitFraudProof,
                       encode(pending.proof));
      c_fraud_submitted_->inc();
      arm_retry(retry, head, config_.params.checkpoint_period, retry_rng_);
    }
    ++it;
  }
}

}  // namespace hc::runtime

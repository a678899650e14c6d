#include "runtime/watcher.hpp"

namespace hc::runtime {

namespace {

Bytes cid_key(const Cid& cid) {
  return Bytes(cid.digest().begin(), cid.digest().end());
}

}  // namespace

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
  const Bytes key = cid_key(cp.cid());
  if (ev.contents.contains(key)) return {};
  ev.contents.emplace(key, cp);
  return try_assemble(cp.epoch);
}

std::vector<core::FraudProof> CheckpointWatcher::record_share(
    chain::Epoch epoch, const Cid& cid, const crypto::PublicKey& signer,
    const crypto::Signature& signature) {
  if (!reserve_epoch(epoch)) return {};
  auto& ev = evidence_[epoch];
  ev.sigs[cid_key(cid)][signer.to_bytes()] =
      core::CheckpointSignature{signer, signature};
  return try_assemble(epoch);
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

}  // namespace hc::runtime

// Byzantine adversary sweeps: armed validators equivocate, forge
// CrossMsgMeta, withhold signatures or replay stale checkpoints while the
// honest majority keeps the subnet live. Every run checks the standard
// chaos invariants PLUS the Byzantine postconditions (exactly the guilty
// slashed, honest collateral untouched, deactivation where expected,
// detection latency bounded, no duplicate proofs) — and determinism: the
// same scenario/seed pair replays byte-identically, adversary included.
// The CheckpointWatcher suite drives the equivocation index directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "chaos/runner.hpp"
#include "runtime/checkpoint_duty.hpp"

namespace hc::chaos {
namespace {

RunnerConfig byz_runner_config() {
  RunnerConfig cfg;
  cfg.children = 2;
  cfg.nested = 0;
  cfg.warmup = sim::kSecond;
  cfg.fault_window = 8 * sim::kSecond;
  cfg.settle = 180 * sim::kSecond;
  return cfg;
}

/// Scenarios runnable on the flat (nested = 0) topology — everything but
/// the depth-2 equivocation.
std::vector<Scenario> flat_scenarios() {
  auto scenarios = ChaosRunner::byzantine_scenarios();
  scenarios.erase(std::remove_if(scenarios.begin(), scenarios.end(),
                                 [](const Scenario& s) {
                                   return s.name == "byz-equivocate-deep";
                                 }),
                  scenarios.end());
  return scenarios;
}

/// Sum of every labelled series of counter `family` in a metrics export.
std::uint64_t counter_total(const std::string& json,
                            const std::string& family) {
  const std::string key = "\"" + family + "\":{";
  const std::size_t start = json.find(key);
  if (start == std::string::npos) return 0;
  const std::size_t end = json.find('}', start);
  std::uint64_t total = 0;
  for (std::size_t p = json.find("\":", start + key.size()); p < end;
       p = json.find("\":", p + 2)) {
    total += std::stoull(json.substr(p + 2));
  }
  return total;
}

TEST(ByzantineSmoke, EquivocatorIsSlashedExactlyOnce) {
  ChaosRunner runner(byz_runner_config());
  const auto scenarios = ChaosRunner::byzantine_scenarios();
  const auto& scenario = scenarios.front();
  ASSERT_EQ(scenario.name, "byz-equivocate");
  for (const std::uint64_t seed : {7ull, 21ull}) {
    const RunResult r = runner.run(scenario, seed);
    EXPECT_TRUE(r.converged) << r.summary();
    EXPECT_TRUE(r.report.ok()) << r.summary();
    // The watchers noticed and the slash settled — visible in the exports.
    EXPECT_NE(r.metrics_json.find("fraud_detection_latency_us"),
              std::string::npos);
    EXPECT_NE(r.metrics_json.find("validators_slashed_total"),
              std::string::npos);
  }
}

TEST(ByzantineSmoke, RestartedEquivocatorComesBackHonest) {
  // Arming lives on the node object: a crash-restarted replica is honest.
  // `restarted` brings the equivocator back mid-window; `held_down` keeps
  // it crashed until heal, so its action count is frozen at the crash.
  // Both timelines agree up to the restart, so equal counts mean the
  // restarted replica never acted again.
  const auto equivocate_then_crash = [](bool restart_mid_window) {
    Scenario s;
    s.name = restart_mid_window ? "byz-restart" : "byz-held-down";
    s.plan = [restart_mid_window](const RunnerConfig& cfg) {
      FaultPlan p;
      p.byzantine(0, NodeRef{1, 0}, ByzantineBehavior::kEquivocate);
      p.crash(cfg.fault_window / 4, NodeRef{1, 0});
      if (restart_mid_window) p.restart(cfg.fault_window / 2, NodeRef{1, 0});
      return p;
    };
    s.byzantine = ByzantineExpectation{{NodeRef{1, 0}}, {}};
    return s;
  };
  ChaosRunner runner(byz_runner_config());
  const RunResult restarted = runner.run(equivocate_then_crash(true), 7);
  const RunResult held_down = runner.run(equivocate_then_crash(false), 7);
  // check_byzantine: exactly the equivocator slashed, exactly once.
  ASSERT_TRUE(restarted.ok()) << restarted.summary();
  ASSERT_TRUE(held_down.ok()) << held_down.summary();
  const std::uint64_t acts =
      counter_total(restarted.metrics_json, "node_byzantine_actions_total");
  EXPECT_GT(acts, 0u);
  EXPECT_EQ(acts, counter_total(held_down.metrics_json,
                                "node_byzantine_actions_total"));
}

TEST(ByzantineSweep, FlatScenariosHoldInvariantsAcrossSeeds) {
  ChaosRunner runner(byz_runner_config());
  const auto scenarios = flat_scenarios();
  ASSERT_GE(scenarios.size(), 4u);
  const auto results = runner.sweep(scenarios, {7, 21, 1234});
  ASSERT_EQ(results.size(), scenarios.size() * 3);
  for (const auto& r : results) {
    EXPECT_TRUE(r.converged) << r.summary();
    EXPECT_TRUE(r.report.ok()) << r.summary();
  }
}

TEST(ByzantineSweep, SameSeedReplayIsByteIdentical) {
  ChaosRunner runner(byz_runner_config());
  const auto scenarios = ChaosRunner::byzantine_scenarios();
  // Collateral collapse stresses the most machinery: two equivocators,
  // two slashes, subnet deactivation and invariant relaxation.
  const auto& scenario = scenarios.at(2);
  ASSERT_EQ(scenario.name, "byz-collapse");
  const RunResult a = runner.run(scenario, 42);
  const RunResult b = runner.run(scenario, 42);
  ASSERT_TRUE(a.ok()) << a.summary();
  EXPECT_EQ(a.state_roots, b.state_roots);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.fingerprint, b.fingerprint);

  const RunResult c = runner.run(scenario, 43);
  ASSERT_TRUE(c.ok()) << c.summary();
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(ByzantineSweep, CollapseDeactivatesOnlyTheGuiltySubnet) {
  ChaosRunner runner(byz_runner_config());
  const auto scenarios = ChaosRunner::byzantine_scenarios();
  const auto& scenario = scenarios.at(2);
  ASSERT_EQ(scenario.name, "byz-collapse");
  const RunResult r = runner.run(scenario, 7);
  ASSERT_TRUE(r.ok()) << r.summary();
  // Both slashes and the deactivation reached the deterministic exports;
  // check_byzantine already verified the first child stayed active.
  EXPECT_NE(r.metrics_json.find("subnets_deactivated_total"),
            std::string::npos);
}

TEST(ByzantineSweep, DepthTwoEquivocationIsSlashedByTheMiddleSubnet) {
  RunnerConfig cfg = byz_runner_config();
  cfg.children = 2;
  cfg.nested = 1;  // root -> child0 -> grandchild
  ChaosRunner runner(cfg);
  const auto scenarios = ChaosRunner::byzantine_scenarios();
  const auto& scenario = scenarios.back();
  ASSERT_EQ(scenario.name, "byz-equivocate-deep");
  for (const std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    const RunResult r = runner.run(scenario, seed);
    EXPECT_TRUE(r.converged) << r.summary();
    EXPECT_TRUE(r.report.ok()) << r.summary();
  }
}

// ------------------------------------------------ CheckpointWatcher (unit)

const core::SubnetId& watched_subnet() {
  static const core::SubnetId id =
      core::SubnetId::root().child(Address::id(100));
  return id;
}

/// One side of a possible equivocation: a checkpoint of `watched_subnet`
/// at `epoch` whose block proof is named by `side`.
core::Checkpoint side(chain::Epoch epoch, const std::string& side) {
  core::Checkpoint cp;
  cp.source = watched_subnet();
  cp.epoch = epoch;
  cp.proof = Cid::of(CidCodec::kBlock,
                     to_bytes(side + "@" + std::to_string(epoch)));
  return cp;
}

/// Record `signer`'s share over `cp` in `w`.
std::vector<core::FraudProof> share(runtime::CheckpointWatcher& w,
                                    const core::Checkpoint& cp,
                                    const crypto::KeyPair& signer) {
  const Bytes payload = core::SignedCheckpoint::signing_payload(cp);
  return w.record_share(runtime::SigShare{cp.epoch, cp.cid(),
                                          signer.public_key(),
                                          signer.sign(payload)});
}

TEST(CheckpointWatcher, OneSignerBehindTwoCidsGivesExactlyOneProof) {
  runtime::CheckpointWatcher w;
  const auto mallory = crypto::KeyPair::from_label("watch/mallory");
  const auto honest = crypto::KeyPair::from_label("watch/honest");
  const core::Checkpoint a = side(10, "a");
  const core::Checkpoint b = side(10, "b");

  EXPECT_TRUE(w.record_checkpoint(a).empty());
  EXPECT_TRUE(share(w, a, mallory).empty());
  EXPECT_TRUE(share(w, a, honest).empty());
  // Mallory's second share is evidence, but b's content is not known yet.
  EXPECT_TRUE(share(w, b, mallory).empty());
  const auto proofs = w.record_checkpoint(b);
  ASSERT_EQ(proofs.size(), 1u);
  auto guilty = proofs[0].guilty_signers();
  ASSERT_TRUE(guilty.ok()) << guilty.error().to_string();
  ASSERT_EQ(guilty.value().size(), 1u);
  EXPECT_EQ(guilty.value()[0], mallory.public_key());

  // The offence is reported: repeats and a third side give nothing more.
  EXPECT_TRUE(share(w, b, mallory).empty());
  EXPECT_TRUE(share(w, a, mallory).empty());
  EXPECT_TRUE(w.record_checkpoint(b).empty());
  const core::Checkpoint c = side(10, "c");
  EXPECT_TRUE(w.record_checkpoint(c).empty());
  EXPECT_TRUE(share(w, c, mallory).empty());
}

TEST(CheckpointWatcher, NewerEpochEvictsTheOldestAndOlderArrivalsAreShed) {
  runtime::CheckpointWatcher w;
  const auto mallory = crypto::KeyPair::from_label("watch/mallory");
  constexpr auto kMax =
      static_cast<chain::Epoch>(runtime::CheckpointWatcher::kMaxEpochs);
  // One side of a possible equivocation in each of epochs 1..kMax.
  for (chain::Epoch e = 1; e <= kMax; ++e) {
    ASSERT_TRUE(w.record_checkpoint(side(e, "a")).empty());
    ASSERT_TRUE(share(w, side(e, "a"), mallory).empty());
  }
  // Epoch kMax + 1 is admitted and evicts epoch 1.
  EXPECT_TRUE(w.record_checkpoint(side(kMax + 1, "a")).empty());
  // Epoch 1's second side is now older than everything retained: shed,
  // so no proof, although epoch 1 would have completed one.
  EXPECT_TRUE(w.record_checkpoint(side(1, "b")).empty());
  EXPECT_TRUE(share(w, side(1, "b"), mallory).empty());
  // Epoch 2 was kept: its second side completes a proof.
  EXPECT_TRUE(w.record_checkpoint(side(2, "b")).empty());
  EXPECT_EQ(share(w, side(2, "b"), mallory).size(), 1u);
  // So does the newest epoch.
  EXPECT_TRUE(share(w, side(kMax + 1, "a"), mallory).empty());
  EXPECT_TRUE(w.record_checkpoint(side(kMax + 1, "b")).empty());
  EXPECT_EQ(share(w, side(kMax + 1, "b"), mallory).size(), 1u);
}

TEST(CheckpointWatcher, PruneBelowDropsEvidenceBelowItsEpoch) {
  runtime::CheckpointWatcher w;
  const auto mallory = crypto::KeyPair::from_label("watch/mallory");
  for (const chain::Epoch e : {5, 10}) {
    ASSERT_TRUE(w.record_checkpoint(side(e, "a")).empty());
    ASSERT_TRUE(share(w, side(e, "a"), mallory).empty());
  }
  w.prune_below(10);
  // Epoch 5's first side is gone: its second side alone proves nothing.
  EXPECT_TRUE(w.record_checkpoint(side(5, "b")).empty());
  EXPECT_TRUE(share(w, side(5, "b"), mallory).empty());
  // Epoch 10 is at the bound and kept.
  EXPECT_TRUE(w.record_checkpoint(side(10, "b")).empty());
  EXPECT_EQ(share(w, side(10, "b"), mallory).size(), 1u);
}

}  // namespace
}  // namespace hc::chaos

// ChaosRunner: scenario x seed sweeps with invariant checking.
//
// Each run builds a fresh hierarchy (root + children + optionally a nested
// grandchild) from the seed, drives a deterministic cross-net workload,
// arms the scenario's FaultPlan, heals every fault at the end of the
// window (restarting any validator the plan left crashed), waits for
// quiescence, and evaluates the invariants in src/chaos/invariants.hpp.
// Everything — topology, workload, fault dice, metric exports — derives
// from the seed, so a scenario/seed pair is exactly reproducible: two runs
// yield byte-identical metrics JSON and identical state-root fingerprints.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"

namespace hc::chaos {

struct RunnerConfig {
  // ---- topology
  std::size_t root_validators = 3;
  std::size_t children = 2;          ///< subnets spawned under the root
  std::size_t child_validators = 3;
  /// Spawn one grandchild under the first child (exercises multi-hop
  /// routing and checkpoint commit at every ancestor). 0 or 1.
  std::size_t nested = 0;
  std::uint32_t checkpoint_period = 5;
  sim::Duration block_time = 100 * sim::kMillisecond;

  // ---- phases (simulated time)
  sim::Duration warmup = 2 * sim::kSecond;   ///< healthy run-in before faults
  sim::Duration fault_window = 10 * sim::kSecond;
  sim::Duration settle = 240 * sim::kSecond;  ///< max wait for quiescence

  // ---- overload (DESIGN.md §14)
  /// Mempool capacity installed on every node. The defaults sit far above
  /// anything the standard workload queues, so only the surge scenario
  /// (and any caller opting into tighter caps) ever sheds.
  chain::MempoolConfig mempool{512, 128, 1024};

  // ---- durability (DESIGN.md §15)
  /// Give every validator a durable WAL; crash_node damages the disk per
  /// the scenario's DiskFault and restart_node recovers by WAL replay.
  /// Off by default so the pre-durability scenario sets keep their exact
  /// behavior; the recovery scenario set requires it.
  bool durability = false;
  /// Resolved-content cache cap installed on every node (0 = unbounded).
  /// The recovery sweep bounds it; the bounded-queues invariant then
  /// asserts the observed peaks.
  common::CapacityPolicy content_store;

  // ---- execution
  /// Worker threads for the hierarchy's windowed executor. Any value must
  /// reproduce the 1-thread fingerprints bit-for-bit (DESIGN.md §11);
  /// tests/parallel_test.cpp sweeps this knob to prove it.
  std::size_t threads = 1;
};

/// A named fault timeline. `plan` builds the timeline for one run; offsets
/// are relative to the end of warmup. Plans address nodes as NodeRef
/// {subnet index, validator slot}: 0 = root, 1..children = children in
/// spawn order, then the nested grandchild (when enabled).
/// What a Byzantine scenario must have caused by the end of the run; the
/// runner verifies this AFTER the standard invariants, so "slashing worked"
/// and "the system stayed safe" are checked together.
struct ByzantineExpectation {
  /// Validators expected slashed — exactly these, exactly once each.
  /// Everyone else's collateral must be untouched.
  std::vector<NodeRef> guilty;
  /// Subnet indexes expected deactivated (collateral < min_collateral).
  std::vector<std::size_t> deactivated;
};

struct Scenario {
  std::string name;
  std::string description;
  std::function<FaultPlan(const RunnerConfig&)> plan;
  /// Present on adversary scenarios: slash/deactivation postconditions.
  std::optional<ByzantineExpectation> byzantine;
};

struct RunResult {
  std::string scenario;
  std::uint64_t seed = 0;
  bool converged = false;  ///< reached quiescence before the settle deadline
  InvariantReport report;
  std::uint64_t faults_injected = 0;
  /// One line per subnet: "<id>@<height>=<state root>", deterministic.
  std::string state_roots;
  /// Full deterministic metrics export (obs::metrics_to_json).
  std::string metrics_json;
  /// FNV-1a over state roots + metrics + trace export; equal fingerprints
  /// mean byte-identical runs.
  std::uint64_t fingerprint = 0;

  [[nodiscard]] bool ok() const { return converged && report.ok(); }
  /// Human-readable one-line verdict for logs and bench output.
  [[nodiscard]] std::string summary() const;
};

class ChaosRunner {
 public:
  explicit ChaosRunner(RunnerConfig config = {});

  /// Execute one scenario under one seed.
  [[nodiscard]] RunResult run(const Scenario& scenario, std::uint64_t seed);

  /// The full sweep: every scenario under every seed.
  [[nodiscard]] std::vector<RunResult> sweep(
      const std::vector<Scenario>& scenarios,
      const std::vector<std::uint64_t>& seeds);

  /// The stock scenario set (>= 6): baseline, sustained 20% loss,
  /// child-subnet partition across the signing window, crash+restart of a
  /// checkpoint signer, crash+restart of a parent-view root validator,
  /// a gray child validator, and duplicate/reorder storms at the root.
  [[nodiscard]] static std::vector<Scenario> standard_scenarios();

  /// Byzantine adversary scenarios (DESIGN.md adversary model): checkpoint
  /// equivocation, forged cross-msg value, collateral collapse with subnet
  /// deactivation, checkpoint withholding, stale re-submission, and a
  /// depth-2 equivocation. The depth-2 scenario requires `nested = 1`; the
  /// collapse scenario requires `children >= 2`.
  [[nodiscard]] static std::vector<Scenario> byzantine_scenarios();

  /// Crash/recovery scenarios over durable disks (DESIGN.md §15): disk
  /// intact, power loss (un-fsynced suffix gone), torn tail, bit-flip
  /// corruption, total disk loss, and a double restart within one subnet.
  /// Require `durability = true`; the runner asserts the §15 recovery
  /// invariants plus zero slash records (an honest validator must never be
  /// slashed for "equivocating with its pre-crash self").
  [[nodiscard]] static std::vector<Scenario> recovery_scenarios();

  [[nodiscard]] const RunnerConfig& config() const { return config_; }

 private:
  RunnerConfig config_;
};

}  // namespace hc::chaos

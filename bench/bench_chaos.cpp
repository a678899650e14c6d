// E7 — robustness under injected faults: the chaos sweep as a benchmark.
//
// Each benchmark arg is one standard FaultPlan scenario (loss, partition,
// crash/restart, gray links, duplication) executed by the ChaosRunner over
// a fixed seed set. Counters report, per scenario: how many seeds converged
// to quiescence, how many passed the full invariant suite (firewall/supply
// conservation, no negative balances, queues drained, checkpoints committed,
// replica agreement), total faults injected, and the simulated time budget.
//
// Sidecar: BENCH_chaos.metrics.json accumulates the per-run fingerprints
// and metric snapshots (reason-labelled drop counters, checkpoint retry
// counters, chaos_faults_injected_total).
#include "bench_common.hpp"
#include "chaos/runner.hpp"

namespace hc::bench {
namespace {

const std::vector<std::uint64_t>& bench_seeds() {
  static const std::vector<std::uint64_t> seeds = {7, 21, 1234};
  return seeds;
}

chaos::RunnerConfig chaos_config() {
  chaos::RunnerConfig cfg;
  cfg.children = 2;
  cfg.nested = 1;  // exercise a three-level branch: root -> c0 -> g0
  cfg.warmup = sim::kSecond;
  cfg.fault_window = 10 * sim::kSecond;
  cfg.settle = 180 * sim::kSecond;
  return cfg;
}

SidecarWriter sidecar("chaos");

void run_chaos_scenario(benchmark::State& state) {
  const auto scenarios = chaos::ChaosRunner::standard_scenarios();
  const auto& scenario =
      scenarios.at(static_cast<std::size_t>(state.range(0)));
  state.SetLabel(scenario.name);

  for (auto _ : state) {
    chaos::ChaosRunner runner(chaos_config());
    std::size_t converged = 0;
    std::size_t invariants_ok = 0;
    std::size_t faults = 0;
    for (const std::uint64_t seed : bench_seeds()) {
      const chaos::RunResult r = runner.run(scenario, seed);
      converged += r.converged ? 1 : 0;
      invariants_ok += r.report.ok() ? 1 : 0;
      faults += r.faults_injected;
      sidecar.add(r.scenario + "/seed-" + std::to_string(r.seed), r.seed,
                  r.metrics_json, r.fingerprint);
    }
    state.counters["seeds"] = static_cast<double>(bench_seeds().size());
    state.counters["converged"] = static_cast<double>(converged);
    state.counters["invariants_ok"] = static_cast<double>(invariants_ok);
    state.counters["faults_injected"] = static_cast<double>(faults);
  }
}

BENCHMARK(run_chaos_scenario)
    ->ArgNames({"scenario"})
    ->DenseRange(0, 6)  // the 7 standard scenarios, by index
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

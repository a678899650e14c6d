// E7 — robustness under injected faults: the chaos sweep as a benchmark.
//
// Each benchmark arg is one standard FaultPlan scenario (loss, partition,
// crash/restart, gray links, duplication, surge overload) executed by the
// ChaosRunner over a fixed seed set; a second benchmark runs the crash/
// recovery scenarios over durable disks (DESIGN.md §15) under the same
// recovery config as tests/chaos_test.cpp. Counters report, per scenario:
// how many seeds converged to quiescence, how many passed the full
// invariant suite (firewall/supply conservation, no negative balances,
// queues drained, checkpoints committed, replica agreement), and total
// faults injected.
//
// Sidecar: BENCH_chaos.metrics.json accumulates the per-run fingerprints
// and metric snapshots (reason-labelled drop counters, checkpoint retry
// counters, chaos_faults_injected_total). The committed BENCH_chaos.json
// pins those fingerprints: scripts/bench_diff.py fails on any that moved.
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
  cfg.threads = bench_threads();
  return cfg;
}

chaos::RunnerConfig recovery_config() {
  chaos::RunnerConfig cfg;
  cfg.children = 2;
  cfg.nested = 0;
  cfg.warmup = sim::kSecond;
  cfg.fault_window = 8 * sim::kSecond;
  cfg.settle = 180 * sim::kSecond;
  cfg.durability = true;
  cfg.content_store.max_items = 4096;
  cfg.content_store.max_bytes = 4u << 20;
  cfg.threads = bench_threads();
  return cfg;
}

SidecarWriter sidecar("chaos");

void run_sweep(benchmark::State& state, const chaos::RunnerConfig& config,
               const std::vector<chaos::Scenario>& scenarios) {
  const auto& scenario =
      scenarios.at(static_cast<std::size_t>(state.range(0)));
  state.SetLabel(scenario.name);

  for (auto _ : state) {
    chaos::ChaosRunner runner(config);
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

void run_chaos_scenario(benchmark::State& state) {
  run_sweep(state, chaos_config(),
            chaos::ChaosRunner::standard_scenarios());
}

void run_recovery_scenario(benchmark::State& state) {
  run_sweep(state, recovery_config(),
            chaos::ChaosRunner::recovery_scenarios());
}

BENCHMARK(run_chaos_scenario)
    ->ArgNames({"scenario"})
    ->DenseRange(0, 7)  // the 8 standard scenarios, by index
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(run_recovery_scenario)
    ->ArgNames({"scenario"})
    ->DenseRange(0, 6)  // the 7 recovery scenarios, by index
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

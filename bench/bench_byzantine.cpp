// E8 — adversary tolerance: the Byzantine sweep as a benchmark.
//
// Each benchmark arg is one adversary scenario (checkpoint equivocation,
// forged CrossMsgMeta value, collateral collapse with subnet deactivation,
// checkpoint withholding, stale re-submission, depth-2 equivocation)
// executed by the ChaosRunner over a fixed seed set on a three-level
// hierarchy. Counters report, per scenario: how many seeds converged, how
// many passed the invariant suite plus the Byzantine postconditions
// (exactly the guilty slashed, honest collateral untouched), and how many
// slashes/deactivations the scenario expects per run.
//
// Sidecar: BENCH_byzantine.metrics.json accumulates the per-run
// fingerprints and metric snapshots — fraud_detection_latency_us histograms, slash and
// deactivation counters, byzantine action counters — for offline analysis
// of detection latency distributions. The committed BENCH_byzantine.json
// pins those fingerprints: scripts/bench_diff.py fails on any that moved.
#include "bench_common.hpp"
#include "chaos/runner.hpp"

namespace hc::bench {
namespace {

const std::vector<std::uint64_t>& bench_seeds() {
  static const std::vector<std::uint64_t> seeds = {7, 21, 1234};
  return seeds;
}

chaos::RunnerConfig byz_config() {
  chaos::RunnerConfig cfg;
  cfg.children = 2;
  cfg.nested = 1;  // three-level branch so the depth-2 scenario runs
  cfg.warmup = sim::kSecond;
  cfg.fault_window = 10 * sim::kSecond;
  cfg.settle = 180 * sim::kSecond;
  cfg.threads = bench_threads();
  return cfg;
}

SidecarWriter sidecar("byzantine");

void run_byzantine_scenario(benchmark::State& state) {
  const auto scenarios = chaos::ChaosRunner::byzantine_scenarios();
  const auto& scenario =
      scenarios.at(static_cast<std::size_t>(state.range(0)));
  state.SetLabel(scenario.name);
  const std::size_t guilty =
      scenario.byzantine ? scenario.byzantine->guilty.size() : 0;
  const std::size_t deactivated =
      scenario.byzantine ? scenario.byzantine->deactivated.size() : 0;

  for (auto _ : state) {
    chaos::ChaosRunner runner(byz_config());
    std::size_t converged = 0;
    std::size_t ok = 0;
    for (const std::uint64_t seed : bench_seeds()) {
      const chaos::RunResult r = runner.run(scenario, seed);
      converged += r.converged ? 1 : 0;
      ok += r.report.ok() ? 1 : 0;
      sidecar.add(r.scenario + "/seed-" + std::to_string(r.seed), r.seed,
                  r.metrics_json, r.fingerprint);
    }
    state.counters["seeds"] = static_cast<double>(bench_seeds().size());
    state.counters["converged"] = static_cast<double>(converged);
    state.counters["invariants_ok"] = static_cast<double>(ok);
    state.counters["slashed_per_run"] = static_cast<double>(guilty);
    state.counters["deactivated_per_run"] = static_cast<double>(deactivated);
  }
}

BENCHMARK(run_byzantine_scenario)
    ->ArgNames({"scenario"})
    ->DenseRange(0, 5)  // the 6 adversary scenarios, by index
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

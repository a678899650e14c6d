// E7 — §II/§VI consensus plurality: per-subnet engine comparison.
//
// One chain (the rootnet) runs each of the four engines at the same block
// time with a saturating transfer load. Reported per engine and validator
// count:
//   tps              committed user tx per simulated second
//   blocks_per_s     commit cadence
//   finality_sim_ms  time to finality: (finality_depth + 1) * block interval
//   net_msgs_per_blk consensus message overhead (network sends per block)
//
// BFT engines pay votes per block but finalize instantly; the lottery pays
// nothing extra but needs confirmation depth — exactly the trade the paper
// lets every subnet make for itself.
#include "bench_common.hpp"

namespace hc::bench {
namespace {

SidecarWriter sidecar("tab1_consensus");

constexpr sim::Duration kWindow = 10 * sim::kSecond;

void run_engine(benchmark::State& state) {
  const auto type = static_cast<core::ConsensusType>(state.range(0));
  const auto n_validators = static_cast<std::size_t>(state.range(1));

  for (auto _ : state) {
    runtime::HierarchyConfig cfg = bench_config(
        7000 + state.range(0) * 100 + state.range(1), type, n_validators);
    runtime::Hierarchy h(cfg);

    LoadGenerator load(h.root(), 2, "eng" + std::to_string(state.range(0)) +
                                       "n" + std::to_string(n_validators));
    if (!fund_in_subnet(h, h.root(), load.addresses(),
                        TokenAmount::whole(1000))) {
      state.SkipWithError("funding failed");
      return;
    }

    const auto& node = h.root().node(0);
    const std::uint64_t blocks_before = node.stats().blocks_committed;
    const std::uint64_t txs_before = node.stats().user_msgs_executed;
    h.network().reset_stats();

    const sim::Time start = h.scheduler().now();
    while (h.scheduler().now() - start < kWindow) {
      load.pump(30);
      h.run_for(100 * sim::kMillisecond);
    }
    h.run_for(sim::kSecond);

    const double secs =
        static_cast<double>(kWindow) / static_cast<double>(sim::kSecond);
    const double blocks = static_cast<double>(node.stats().blocks_committed -
                                              blocks_before);
    const double txs =
        static_cast<double>(node.stats().user_msgs_executed - txs_before);
    // Finality: engines with instant finality (depth 0) finalize at commit;
    // probabilistic engines wait finality_depth extra blocks.
    int depth = 0;
    if (type == core::ConsensusType::kPowerLottery) depth = 5;
    const double interval_ms =
        blocks > 0 ? (secs * 1000.0) / blocks : 1e9;

    state.counters["tps"] = txs / secs;
    state.counters["blocks_per_s"] = blocks / secs;
    state.counters["finality_sim_ms"] = (depth + 1) * interval_ms;
    state.counters["net_msgs_per_blk"] =
        blocks > 0 ? static_cast<double>(h.network().stats().messages_sent) /
                         blocks
                   : 0;
    state.counters["validators"] = static_cast<double>(n_validators);
    sidecar.capture(h,
                    "engine=" + std::to_string(state.range(0)) +
                        "/n=" + std::to_string(n_validators),
                    static_cast<std::uint64_t>(7000 + state.range(0) * 100 +
                                               state.range(1)));
  }
}

BENCHMARK(run_engine)
    ->ArgNames({"engine", "n"})
    ->Args({0, 4})   // PoA
    ->Args({0, 16})
    ->Args({1, 4})   // power lottery
    ->Args({1, 16})
    ->Args({2, 4})   // Tendermint
    ->Args({2, 16})
    ->Args({3, 4})   // RRBFT
    ->Args({3, 16})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Liveness under crash faults: f validators down, measure cadence loss.
void run_engine_faulty(benchmark::State& state) {
  const auto type = static_cast<core::ConsensusType>(state.range(0));
  constexpr std::size_t kN = 4;  // f = 1

  for (auto _ : state) {
    runtime::Hierarchy h(bench_config(7500 + state.range(0), type, kN));
    // Crash one validator (not node 0: the API endpoint stays up).
    h.root().node(kN - 1).stop();
    h.network().set_node_down(h.root().node(kN - 1).net_id(), true);

    const auto& node = h.root().node(0);
    const std::uint64_t blocks_before = node.stats().blocks_committed;
    h.run_for(kWindow);
    const double blocks = static_cast<double>(node.stats().blocks_committed -
                                              blocks_before);
    const double secs =
        static_cast<double>(kWindow) / static_cast<double>(sim::kSecond);
    state.counters["blocks_per_s_faulty"] = blocks / secs;
  }
}

BENCHMARK(run_engine_faulty)
    ->ArgName("engine")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

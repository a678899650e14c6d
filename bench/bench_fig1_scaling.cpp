// E1 — Fig. 1 / §I headline claim: horizontal scale-out.
//
// Aggregate committed-transaction throughput as a function of the number of
// subnets, against a rootnet-only baseline receiving the same total offered
// load. Every chain has identical capacity (block time 100ms, 10 user msgs
// per block => 100 tx/s ceiling); the paper's claim is that capacity adds
// up because subnets order and execute independently.
//
// Reported counters (per benchmark row):
//   subnets        number of spawned subnets (0 = rootnet baseline)
//   total_tps      committed user tx per simulated second, summed
//   per_chain_tps  total_tps / chains
//   sim_seconds    measurement window (simulated)
//
// The wall-clock side of the same claim (committed tx per wall-second at
// 1 vs N worker threads) is perfbench's: `hc_perfbench --threads N`
// (EXPERIMENTS.md A4).
#include "bench_common.hpp"

namespace hc::bench {
namespace {

SidecarWriter sidecar("fig1_scaling");

constexpr sim::Duration kWindow = 10 * sim::kSecond;
constexpr std::size_t kMsgsPerBlock = 10;   // per-chain capacity ceiling
constexpr std::size_t kOfferedPerTick = 12;  // > capacity: saturation

void configure_capacity(runtime::Subnet& subnet) {
  for (std::size_t i = 0; i < subnet.size(); ++i) {
    subnet.node(i).set_max_user_msgs_per_block(kMsgsPerBlock);
  }
}

void run_scaling(benchmark::State& state) {
  const int n_subnets = static_cast<int>(state.range(0));
  for (auto _ : state) {
    runtime::Hierarchy h(bench_config(/*seed=*/1000 + n_subnets));

    std::vector<runtime::Subnet*> chains;
    std::vector<std::unique_ptr<LoadGenerator>> loads;
    configure_capacity(h.root());
    if (n_subnets == 0) {
      chains.push_back(&h.root());  // baseline: all load on the rootnet
    } else {
      for (int i = 0; i < n_subnets; ++i) {
        auto s = h.spawn_subnet(h.root(), "scale-" + std::to_string(i),
                                bench_params(), 3, TokenAmount::whole(5),
                                subnet_engine());
        if (!s.ok()) {
          state.SkipWithError("spawn failed");
          return;
        }
        chains.push_back(s.value());
        configure_capacity(*s.value());
      }
    }

    // Two load users per chain, funded in-band.
    for (std::size_t i = 0; i < chains.size(); ++i) {
      loads.push_back(std::make_unique<LoadGenerator>(
          *chains[i], 2, "s" + std::to_string(n_subnets) + "c" +
                              std::to_string(i)));
      if (!fund_in_subnet(h, *chains[i], loads.back()->addresses(),
                          TokenAmount::whole(100))) {
        state.SkipWithError("funding failed");
        return;
      }
    }

    // Baseline committed counters.
    std::vector<std::uint64_t> before;
    before.reserve(chains.size());
    for (auto* c : chains) {
      before.push_back(c->node(0).stats().user_msgs_executed);
    }

    // Saturate for the window. The baseline row receives the SAME total
    // offered load as the n-subnet rows so the comparison is apples to
    // apples.
    const std::size_t chains_equivalent =
        n_subnets == 0 ? 8 : static_cast<std::size_t>(n_subnets);
    const sim::Time start = h.scheduler().now();
    while (h.scheduler().now() - start < kWindow) {
      for (std::size_t i = 0; i < chains.size(); ++i) {
        loads[i]->pump(kOfferedPerTick * chains_equivalent / chains.size());
      }
      h.run_for(100 * sim::kMillisecond);
    }
    h.run_for(sim::kSecond);  // drain in-flight blocks

    std::uint64_t committed = 0;
    for (std::size_t i = 0; i < chains.size(); ++i) {
      committed +=
          chains[i]->node(0).stats().user_msgs_executed - before[i];
    }
    const double secs =
        static_cast<double>(kWindow) / static_cast<double>(sim::kSecond);
    state.counters["subnets"] = static_cast<double>(n_subnets);
    state.counters["total_tps"] = static_cast<double>(committed) / secs;
    state.counters["per_chain_tps"] =
        static_cast<double>(committed) / secs /
        static_cast<double>(chains.size());
    state.counters["sim_seconds"] = secs;
    sidecar.capture(h, "scaling/subnets=" + std::to_string(n_subnets),
                    1000 + static_cast<std::uint64_t>(n_subnets));
  }
}

BENCHMARK(run_scaling)
    ->ArgName("subnets")
    ->Arg(0)  // rootnet-only baseline
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

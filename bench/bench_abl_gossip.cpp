// Ablation — gossip mesh parameters of the network substrate.
//
// The simulator replaces libp2p gossipsub (DESIGN.md §2); this ablation
// validates that the replacement reproduces gossip's characteristic
// trade-off: mesh degree D trades redundant traffic for propagation speed
// and loss-resilience. Measured: full-coverage delivery latency of one
// published message across N subscribers, messages sent, duplicate rate.
#include "bench_common.hpp"

namespace hc::bench {
namespace {

void run_gossip(benchmark::State& state) {
  const auto degree = static_cast<std::size_t>(state.range(0));
  const int subscribers = static_cast<int>(state.range(1));
  const double loss = static_cast<double>(state.range(2)) / 100.0;

  for (auto _ : state) {
    sim::Scheduler sched;
    net::GossipConfig gcfg;
    gcfg.mesh_degree = degree;
    net::Network net(sched,
                     sim::LatencyModel(20 * sim::kMillisecond,
                                       10 * sim::kMillisecond),
                     /*seed=*/degree * 1000 + static_cast<std::uint64_t>(subscribers), gcfg);
    net.set_drop_rate(loss);

    std::vector<net::NodeId> ids;
    int delivered = 0;
    sim::Time last_delivery = 0;
    for (int i = 0; i < subscribers; ++i) {
      ids.push_back(net.add_node());
      net.subscribe(ids.back(), "abl");
      net.set_topic_handler(ids.back(),
                            [&](net::NodeId, const std::string&,
                                const net::Envelope&) {
                              ++delivered;
                              last_delivery = sched.now();
                            });
    }
    net.publish(ids[0], "abl", to_bytes("payload"));
    sched.run_until(30 * sim::kSecond);

    state.counters["coverage_pct"] =
        100.0 * delivered / (subscribers - 1);
    state.counters["full_latency_ms"] =
        static_cast<double>(last_delivery) / 1000.0;
    state.counters["msgs_sent"] =
        static_cast<double>(net.stats().messages_sent);
    state.counters["duplicates"] =
        static_cast<double>(net.stats().gossip_duplicates);
    state.counters["degree"] = static_cast<double>(degree);
    state.counters["loss_pct"] = loss * 100;
  }
}

BENCHMARK(run_gossip)
    ->ArgNames({"degree", "nodes", "losspct"})
    ->Args({2, 64, 0})
    ->Args({4, 64, 0})
    ->Args({6, 64, 0})
    ->Args({8, 64, 0})
    ->Args({6, 16, 0})
    ->Args({6, 256, 0})
    // loss resilience: low degree loses coverage, high degree keeps it
    ->Args({2, 64, 20})
    ->Args({6, 64, 20})
    ->Args({8, 64, 20})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

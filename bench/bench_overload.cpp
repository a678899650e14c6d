// Overload sweep (DESIGN.md §14): drive one child subnet at 1x / 4x / 10x
// of its capacity ceiling with every bound engaged — bounded mempool with
// per-sender caps, bounded per-receiver gossip queues — and show graceful
// degradation: committed throughput pins at the ceiling, every queue peak
// stays under its cap, the excess is shed deterministically, and clients
// absorb the backpressure through kOverloaded retries instead of growing
// any buffer without bound.
//
// Reported counters (per benchmark row):
//   mult             offered-load multiplier over the capacity ceiling
//   offered_tps      submissions attempted per simulated second
//   committed_tps    user tx committed per simulated second
//   retries          kOverloaded refusals absorbed by client backoff
//   mempool_sheds    mempool admission refusals + evictions (all nodes)
//   mempool_peak     max pool occupancy seen on any node (cap: kPoolCap)
//   queue_peak_depth max per-node delivery-queue depth (cap: kQueueDepth)
//   queue_peak_kb    max per-node delivery-queue bytes (cap: kQueueBytes)
//
// The run FAILS (SkipWithError) if any peak exceeds its cap — the bench
// doubles as the "bounded under surge" acceptance check. The p99 signal
// for the regression gate comes from the block_commit_latency_us histogram
// in the metrics sidecar: under overload, commit latency of ADMITTED
// traffic must stay close to the uncongested run (the pool never grows
// past kPoolCap, so selection cost is bounded too).
#include "bench_common.hpp"

namespace hc::bench {
namespace {

SidecarWriter sidecar("overload");

constexpr sim::Duration kWindow = 10 * sim::kSecond;
constexpr std::size_t kMsgsPerBlock = 10;  // 100ms blocks => 100 tx/s ceiling
constexpr std::size_t kBasePerTick = 10;   // 1x = exactly the ceiling

// Caps under test. Pool: two load users at 256 pending each fill the pool
// exactly; every further submission is refused, never buffered. Queue caps
// are sized to sit WELL above what the drained gossip mesh needs, so they
// bound memory without perturbing consensus traffic.
constexpr std::size_t kPoolCap = 512;
constexpr std::size_t kPerSenderCap = 256;
constexpr std::size_t kQueueDepth = 4096;
constexpr std::size_t kQueueBytes = 1u << 22;  // 4 MiB
constexpr std::size_t kTopicDepth = 2048;

void configure_capacity(runtime::Subnet& subnet) {
  for (std::size_t i = 0; i < subnet.size(); ++i) {
    subnet.node(i).set_max_user_msgs_per_block(kMsgsPerBlock);
  }
}

void run_overload(benchmark::State& state) {
  const auto mult = static_cast<std::size_t>(state.range(0));
  const std::uint64_t seed = 9000 + mult;
  for (auto _ : state) {
    runtime::HierarchyConfig cfg = bench_config(seed);
    cfg.mempool = chain::MempoolConfig{kPoolCap, kPerSenderCap, 1024};
    cfg.gossip.node_queue = net::NodeQueuePolicy{
        kQueueDepth, kQueueBytes, kTopicDepth, 20 * sim::kMicrosecond};
    runtime::Hierarchy h(cfg);
    configure_capacity(h.root());

    auto s = h.spawn_subnet(h.root(), "overload", bench_params(), 3,
                            TokenAmount::whole(5), subnet_engine());
    if (!s.ok()) {
      state.SkipWithError("spawn failed");
      return;
    }
    runtime::Subnet& child = *s.value();
    configure_capacity(child);

    LoadGenerator load(child, 2, "ovl-m" + std::to_string(mult));
    if (!fund_in_subnet(h, child, load.addresses(),
                        TokenAmount::whole(100))) {
      state.SkipWithError("funding failed");
      return;
    }

    const std::uint64_t before = child.node(0).stats().user_msgs_executed;
    std::size_t offered = 0;
    const sim::Time start = h.scheduler().now();
    while (h.scheduler().now() - start < kWindow) {
      load.pump(kBasePerTick * mult);
      offered += kBasePerTick * mult;
      h.run_for(100 * sim::kMillisecond);
    }
    h.run_for(2 * sim::kSecond);  // drain in-flight blocks and retries

    const std::uint64_t committed =
        child.node(0).stats().user_msgs_executed - before;
    std::uint64_t sheds = 0;
    std::size_t pool_peak = 0;
    for (std::size_t i = 0; i < child.size(); ++i) {
      const auto& shed = child.node(i).mempool_shed_stats();
      sheds += shed.total();
      pool_peak = std::max(pool_peak,
                           std::max(shed.peak_items,
                                    child.node(i).mempool_size()));
    }
    const net::Network::Stats net = h.network().stats();

    // Bounded-under-surge acceptance: a peak past its cap means a bound
    // leaked, which no amount of throughput can excuse.
    if (pool_peak > kPoolCap) {
      state.SkipWithError("mempool peak exceeded cap");
      return;
    }
    if (net.queue_peak_depth > kQueueDepth ||
        net.queue_peak_bytes > kQueueBytes) {
      state.SkipWithError("delivery-queue peak exceeded cap");
      return;
    }

    const double secs =
        static_cast<double>(kWindow) / static_cast<double>(sim::kSecond);
    state.counters["mult"] = static_cast<double>(mult);
    state.counters["offered_tps"] = static_cast<double>(offered) / secs;
    state.counters["committed_tps"] = static_cast<double>(committed) / secs;
    state.counters["retries"] = static_cast<double>(load.retried());
    state.counters["mempool_sheds"] = static_cast<double>(sheds);
    state.counters["mempool_peak"] = static_cast<double>(pool_peak);
    state.counters["queue_peak_depth"] =
        static_cast<double>(net.queue_peak_depth);
    state.counters["queue_peak_kb"] =
        static_cast<double>(net.queue_peak_bytes) / 1024.0;

    // Mirror the peaks into the metrics sidecar so the committed baseline
    // records them next to the shed counters (all CAS-max / monotonic sums:
    // identical at any worker-thread count).
    auto& m = h.obs().metrics;
    const obs::Labels row{{"mult", std::to_string(mult)}};
    m.gauge("bench_overload_pool_peak", row)
        .set(static_cast<std::int64_t>(pool_peak));
    m.gauge("bench_overload_queue_peak_depth", row)
        .set(static_cast<std::int64_t>(net.queue_peak_depth));
    m.gauge("bench_overload_queue_peak_bytes", row)
        .set(static_cast<std::int64_t>(net.queue_peak_bytes));
    m.gauge("bench_overload_retries", row)
        .set(static_cast<std::int64_t>(load.retried()));
    sidecar.capture(h, "overload/mult=" + std::to_string(mult), seed);
  }
}

BENCHMARK(run_overload)
    ->ArgName("mult")
    ->Arg(1)   // uncongested reference: offered == capacity
    ->Arg(4)
    ->Arg(10)  // deep saturation
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

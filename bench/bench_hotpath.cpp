// Hot-path memory bench: gossip -> decode -> execute -> commit.
//
// Exercises the zero-copy machinery end to end on a small hierarchy under
// saturating transfer load and exports the counters that gate it
// (scripts/bench_diff.py against the committed BENCH_hotpath.json):
//
//   alloc_bytes_total             signing-payload bytes the executors and
//                                 mempools encode
//   payload_decode_hits_total     envelope decode-cache hits (sharing)
//   payload_decode_misses_total   actual codec decodes of gossip payloads
//   net_bytes_sent_total          logical gossip volume (per-hop)
//   net_bytes_physical_total      materialized payload bytes (per-message)
//
// All are deterministic per seed at --threads 1, so on unchanged code the
// bench_diff deltas are exactly zero. The run itself fails when the decode
// cache never hits (sharing regressed to one-decode-per-replica) or when
// physical bytes exceed logical bytes (accounting inverted).
#include "bench_common.hpp"
#include "net/envelope.hpp"

namespace hc::bench {
namespace {

SidecarWriter sidecar("hotpath");

constexpr sim::Duration kWindow = 5 * sim::kSecond;
constexpr std::size_t kSubnets = 2;
constexpr std::size_t kValidators = 4;  // decode sharing: 1 parse, N readers
constexpr std::size_t kMsgsPerBlock = 10;
constexpr std::size_t kOfferedPerTick = 12;

void run_hotpath(benchmark::State& state) {
  for (auto _ : state) {
    runtime::Hierarchy h(bench_config(/*seed=*/7100));

    std::vector<runtime::Subnet*> chains;
    std::vector<std::unique_ptr<LoadGenerator>> loads;
    for (std::size_t i = 0; i < kSubnets; ++i) {
      auto s = h.spawn_subnet(h.root(), "hot-" + std::to_string(i),
                              bench_params(), kValidators,
                              TokenAmount::whole(5), subnet_engine());
      if (!s.ok()) {
        state.SkipWithError("spawn failed");
        return;
      }
      chains.push_back(s.value());
      for (std::size_t n = 0; n < s.value()->size(); ++n) {
        s.value()->node(n).set_max_user_msgs_per_block(kMsgsPerBlock);
      }
    }
    for (std::size_t i = 0; i < chains.size(); ++i) {
      loads.push_back(std::make_unique<LoadGenerator>(
          *chains[i], 2, "hot-c" + std::to_string(i)));
      if (!fund_in_subnet(h, *chains[i], loads.back()->addresses(),
                          TokenAmount::whole(100))) {
        state.SkipWithError("funding failed");
        return;
      }
    }

    // Snapshot the process-wide decode counters around the window; their
    // deltas are mirrored into this run's registry so the sidecar (and the
    // bench_diff gate) sees them alongside the per-run alloc/net counters.
    const std::uint64_t hits0 = net::Envelope::decode_hits();
    const std::uint64_t misses0 = net::Envelope::decode_misses();
    std::uint64_t committed0 = 0;
    for (auto* c : chains) {
      committed0 += c->node(0).stats().user_msgs_executed;
    }

    const sim::Time start = h.scheduler().now();
    while (h.scheduler().now() - start < kWindow) {
      for (auto& load : loads) load->pump(kOfferedPerTick);
      h.run_for(100 * sim::kMillisecond);
    }
    h.run_for(sim::kSecond);  // drain in-flight blocks

    const std::uint64_t hits = net::Envelope::decode_hits() - hits0;
    const std::uint64_t misses = net::Envelope::decode_misses() - misses0;
    std::uint64_t committed = 0;
    for (auto* c : chains) {
      committed += c->node(0).stats().user_msgs_executed;
    }
    committed -= committed0;
    const net::Network::Stats net_stats = h.network().stats();

    if (hits == 0) {
      state.SkipWithError("decode cache never hit: payload sharing broken");
      return;
    }
    if (net_stats.bytes_physical > net_stats.bytes_sent) {
      state.SkipWithError("physical bytes exceed logical bytes");
      return;
    }

    h.obs().metrics.counter("payload_decode_hits_total").inc(hits);
    h.obs().metrics.counter("payload_decode_misses_total").inc(misses);

    state.counters["committed"] = static_cast<double>(committed);
    state.counters["decode_hits"] = static_cast<double>(hits);
    state.counters["decode_misses"] = static_cast<double>(misses);
    state.counters["decode_share_ratio"] =
        misses == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(misses);
    state.counters["bytes_logical"] =
        static_cast<double>(net_stats.bytes_sent);
    state.counters["bytes_physical"] =
        static_cast<double>(net_stats.bytes_physical);
    sidecar.capture(h, "hotpath/saturated", 7100);
  }
}

BENCHMARK(run_hotpath)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

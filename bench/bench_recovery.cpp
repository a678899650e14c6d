// R1 — crash-recovery cost: WAL replay vs rebuild from genesis (§15).
//
// One durable child subnet grows a chain to N blocks; validator 2 then
// crashes and restarts under two disk outcomes:
//   wal-replay   disk intact (kKeepAll): recovery replays the WAL and the
//                node rejoins at its pre-crash height with no network help,
//   disk-lost    media gone (kLoseDisk): recovery finds nothing, the node
//                restarts from genesis and refetches the whole chain from
//                peers through BlockSync (16 blocks per request, at most
//                one request per block time).
// Reported per (mode, blocks) case:
//   resync_sim_ms     simulated time from restart until the node is back at
//                     the pre-crash head — the paper-facing recovery-time
//                     signal; flat for wal-replay, linear in N for disk-lost
//   replayed_records  WAL records applied during recovery
//   recovered_height  chain height restored from disk alone
//
// Sidecars: BENCH_recovery.metrics.json carries the per-case gauges above
// plus the runtime's own durability counters (wal_appends_total,
// wal_fsyncs_total, recovery_replayed_records_total, the
// recovery_resync_latency_us histogram). The run FAILS (SkipWithError) if
// a wal-replay recovery falls short of the pre-crash height or a disk-lost
// recovery claims one — the bench doubles as an R1 acceptance check.
#include "bench_common.hpp"

#include "storage/durable.hpp"

namespace hc::bench {
namespace {

SidecarWriter sidecar("recovery");

constexpr std::size_t kVictim = 2;
constexpr sim::Duration kBlockTime = 100 * sim::kMillisecond;

void run_recovery(benchmark::State& state) {
  const bool disk_lost = state.range(0) != 0;
  const auto blocks = static_cast<chain::Epoch>(state.range(1));
  const std::string mode = disk_lost ? "disk-lost" : "wal-replay";
  const std::string label =
      "recovery/" + mode + "/blocks=" + std::to_string(blocks);
  state.SetLabel(label);
  const std::uint64_t seed =
      4000 + static_cast<std::uint64_t>(state.range(0)) * 1000 +
      static_cast<std::uint64_t>(blocks);

  for (auto _ : state) {
    runtime::HierarchyConfig cfg = bench_config(seed);
    cfg.durability.enabled = true;
    runtime::Hierarchy h(cfg);

    consensus::EngineConfig engine = subnet_engine(kBlockTime);
    auto spawned = h.spawn_subnet(h.root(), "r1", h.config().root_params, 3,
                                  TokenAmount::whole(6), engine);
    if (!spawned.ok()) {
      state.SkipWithError("spawn failed");
      return;
    }
    runtime::Subnet& child = *spawned.value();

    // Grow the chain to the target length, then crash the victim.
    if (!h.run_until(
            [&] { return child.api_node().chain().height() >= blocks; },
            static_cast<sim::Duration>(blocks) * kBlockTime * 10 +
                60 * sim::kSecond)) {
      state.SkipWithError("chain never reached target length");
      return;
    }
    storage::DiskFault fault;
    fault.kind = disk_lost ? storage::DiskFault::Kind::kLoseDisk
                           : storage::DiskFault::Kind::kKeepAll;
    const chain::Epoch victim_height = child.node(kVictim).chain().height();
    if (!h.crash_node(child, kVictim, fault).ok()) {
      state.SkipWithError("crash failed");
      return;
    }
    h.run_for(2 * sim::kSecond);

    const chain::Epoch pre_crash = child.api_node().chain().height();
    const sim::Time t0 = h.scheduler().now();
    if (!h.restart_node(child, kVictim).ok()) {
      state.SkipWithError("restart failed");
      return;
    }
    const auto& node = child.node(kVictim);
    const chain::Epoch recovered = node.recovered_height();
    const auto recovery = node.recovery_stats();  // copy: stats are per-boot
    if (!disk_lost && recovered < victim_height) {
      state.SkipWithError("wal-replay recovery fell short of the chain");
      return;
    }
    if (disk_lost && recovered != 0) {
      state.SkipWithError("disk-lost recovery claimed a recovered chain");
      return;
    }

    // Resync: the node is back at (or past) the head it missed.
    if (!h.run_until(
            [&] { return node.chain().height() >= pre_crash; },
            static_cast<sim::Duration>(blocks) * kBlockTime * 10 +
                60 * sim::kSecond)) {
      state.SkipWithError("restarted node never caught up");
      return;
    }
    const sim::Time resync_us = h.scheduler().now() - t0;

    const obs::Labels labels{{"case", label}};
    auto& m = h.obs().metrics;
    m.gauge("bench_recovery_resync_sim_us", labels)
        .set(static_cast<std::int64_t>(resync_us));
    m.gauge("bench_recovery_replayed_records", labels)
        .set(static_cast<std::int64_t>(recovery.records));
    m.gauge("bench_recovery_recovered_height", labels)
        .set(static_cast<std::int64_t>(recovered));

    state.counters["resync_sim_ms"] =
        static_cast<double>(resync_us) / static_cast<double>(sim::kMillisecond);
    state.counters["replayed_records"] = static_cast<double>(recovery.records);
    state.counters["recovered_height"] = static_cast<double>(recovered);
    sidecar.capture(h, label, seed);
  }
}

BENCHMARK(run_recovery)
    ->ArgNames({"disk_lost", "blocks"})
    ->Args({0, 60})
    ->Args({0, 120})
    ->Args({0, 240})
    ->Args({1, 60})
    ->Args({1, 120})
    ->Args({1, 240})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

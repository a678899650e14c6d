// E3 — Fig. 3: cross-net message commitment latency.
//
// End-to-end *simulated* latency (submit -> applied at destination) of:
//   - top-down messages to depth 1..3,
//   - bottom-up messages from depth 1..3 (checkpoint-carried),
//   - a path message between depth-1 siblings,
// plus a checkpoint-period sweep showing the period's dominant effect on
// bottom-up latency (messages wait for the next cut, Fig. 2).
//
// Counters: latency_sim_ms (end-to-end), depth, period.
#include "bench_common.hpp"

namespace hc::bench {
namespace {

SidecarWriter sidecar("fig3_crossmsg");

struct Chainline {
  runtime::Hierarchy h;
  std::vector<runtime::Subnet*> line;  // line[0] = depth-1 subnet, ...
  runtime::User alice;

  explicit Chainline(std::uint64_t seed, int depth, std::uint32_t period)
      : h(bench_config(seed)) {
    runtime::Subnet* parent = &h.root();
    for (int d = 0; d < depth; ++d) {
      auto s = h.spawn_subnet(*parent, "lvl" + std::to_string(d),
                              bench_params(core::ConsensusType::kPoaRoundRobin,
                                           period),
                              3, TokenAmount::whole(5), subnet_engine());
      if (!s.ok()) return;
      line.push_back(s.value());
      parent = s.value();
    }
    auto u = h.make_user("alice", TokenAmount::whole(10000));
    if (u.ok()) alice = u.value();
  }

  [[nodiscard]] bool ok() const { return !line.empty(); }
  [[nodiscard]] runtime::Subnet& leaf() { return *line.back(); }
};

void run_topdown(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Chainline world(2000 + static_cast<std::uint64_t>(depth), depth, 5);
    if (!world.ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    const sim::Time t0 = world.h.scheduler().now();
    auto r = world.h.send_cross(world.h.root(), world.alice,
                                world.leaf().id, world.alice.addr,
                                TokenAmount::whole(10));
    if (!r.ok() || !r.value().ok()) {
      state.SkipWithError("send failed");
      return;
    }
    const bool landed = world.h.run_until(
        [&] {
          return world.leaf().node(0).balance(world.alice.addr) ==
                 TokenAmount::whole(10);
        },
        120 * sim::kSecond);
    if (!landed) {
      state.SkipWithError("top-down did not land");
      return;
    }
    state.counters["latency_sim_ms"] =
        static_cast<double>(world.h.scheduler().now() - t0) / 1000.0;
    state.counters["depth"] = depth;
    sidecar.capture(world.h, "topdown/depth=" + std::to_string(depth),
                    2000 + static_cast<std::uint64_t>(depth));
  }
}

BENCHMARK(run_topdown)->ArgName("depth")->Arg(1)->Arg(2)->Arg(3)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void run_bottomup(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto period = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    Chainline world(
        3000 + static_cast<std::uint64_t>(depth) * 100 + period, depth,
        period);
    if (!world.ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    // Fund the leaf first.
    auto f = world.h.send_cross(world.h.root(), world.alice,
                                world.leaf().id, world.alice.addr,
                                TokenAmount::whole(50));
    if (!f.ok() || !f.value().ok() ||
        !world.h.run_until(
            [&] {
              return world.leaf().node(0).balance(world.alice.addr) ==
                     TokenAmount::whole(50);
            },
            120 * sim::kSecond)) {
      state.SkipWithError("funding failed");
      return;
    }

    runtime::User sink{crypto::KeyPair::from_label("sink"),
                       Address::key(crypto::KeyPair::from_label("sink")
                                        .public_key()
                                        .to_bytes())};
    const sim::Time t0 = world.h.scheduler().now();
    auto r = world.h.send_cross(world.leaf(), world.alice,
                                core::SubnetId::root(), sink.addr,
                                TokenAmount::whole(5));
    if (!r.ok() || !r.value().ok()) {
      state.SkipWithError("release failed");
      return;
    }
    const bool landed = world.h.run_until(
        [&] {
          return world.h.root().node(0).balance(sink.addr) ==
                 TokenAmount::whole(5);
        },
        600 * sim::kSecond);
    if (!landed) {
      state.SkipWithError("bottom-up did not land");
      return;
    }
    state.counters["latency_sim_ms"] =
        static_cast<double>(world.h.scheduler().now() - t0) / 1000.0;
    state.counters["depth"] = depth;
    state.counters["period"] = period;
    sidecar.capture(world.h,
                    "bottomup/depth=" + std::to_string(depth) +
                        ",period=" + std::to_string(period),
                    3000 + static_cast<std::uint64_t>(depth) * 100 +
                        period);
  }
}

BENCHMARK(run_bottomup)
    ->ArgNames({"depth", "period"})
    ->Args({1, 5})
    ->Args({2, 5})
    ->Args({3, 5})
    // period sweep at depth 1: bottom-up latency ~ period * block_time
    ->Args({1, 10})
    ->Args({1, 20})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void run_path(benchmark::State& state) {
  for (auto _ : state) {
    runtime::Hierarchy h(bench_config(4000));
    auto a = h.spawn_subnet(h.root(), "A", bench_params(), 3,
                            TokenAmount::whole(5), subnet_engine());
    auto b = h.spawn_subnet(h.root(), "B", bench_params(), 3,
                            TokenAmount::whole(5), subnet_engine());
    if (!a.ok() || !b.ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    auto alice = h.make_user("alice", TokenAmount::whole(1000));
    if (!alice.ok()) {
      state.SkipWithError("user failed");
      return;
    }
    auto f = h.send_cross(h.root(), alice.value(), a.value()->id,
                          alice.value().addr, TokenAmount::whole(50));
    if (!f.ok() ||
        !h.run_until(
            [&] {
              return a.value()->node(0).balance(alice.value().addr) ==
                     TokenAmount::whole(50);
            },
            120 * sim::kSecond)) {
      state.SkipWithError("funding failed");
      return;
    }
    runtime::User sink{crypto::KeyPair::from_label("psink"),
                       Address::key(crypto::KeyPair::from_label("psink")
                                        .public_key()
                                        .to_bytes())};
    const sim::Time t0 = h.scheduler().now();
    auto r = h.send_cross(*a.value(), alice.value(), b.value()->id,
                          sink.addr, TokenAmount::whole(5));
    if (!r.ok() || !r.value().ok()) {
      state.SkipWithError("path send failed");
      return;
    }
    const bool landed = h.run_until(
        [&] {
          return b.value()->node(0).balance(sink.addr) ==
                 TokenAmount::whole(5);
        },
        600 * sim::kSecond);
    if (!landed) {
      state.SkipWithError("path msg did not land");
      return;
    }
    state.counters["latency_sim_ms"] =
        static_cast<double>(h.scheduler().now() - t0) / 1000.0;
    sidecar.capture(h, "path/A-to-B", 4000);
  }
}

BENCHMARK(run_path)->Iterations(1)->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

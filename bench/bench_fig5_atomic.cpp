// E5 — Fig. 5: atomic cross-net execution.
//
// Measures the 2PC protocol end to end with the root SCA as coordinator:
//   - commit latency vs number of parties (2..4 subnets),
//   - commit latency vs party depth (siblings at depth 1 vs nested depth 2),
//   - abort latency (one party aborts instead of submitting).
//
// Counters: phase_lock_ms / phase_decide_ms / total_sim_ms (simulated),
//           parties, depth, committed (1 = commit, 0 = abort).
#include "bench_common.hpp"

namespace hc::bench {
namespace {

SidecarWriter sidecar("fig5_atomic");

struct AtomicWorld {
  runtime::Hierarchy h;
  std::vector<runtime::Subnet*> homes;
  std::vector<runtime::User> users;
  std::vector<Address> apps;

  AtomicWorld(std::uint64_t seed, int n_parties, int depth)
      : h(bench_config(seed)) {
    for (int i = 0; i < n_parties; ++i) {
      runtime::Subnet* parent = &h.root();
      runtime::Subnet* home = nullptr;
      for (int d = 0; d < depth; ++d) {
        auto s = h.spawn_subnet(
            *parent, "p" + std::to_string(i) + "d" + std::to_string(d),
            bench_params(), 3, TokenAmount::whole(5), subnet_engine());
        if (!s.ok()) return;
        home = s.value();
        parent = home;
      }
      homes.push_back(home);
    }
    if (static_cast<int>(homes.size()) != n_parties) return;

    for (int i = 0; i < n_parties; ++i) {
      auto u = h.make_user("party-" + std::to_string(i),
                           TokenAmount::whole(1000));
      if (!u.ok()) return;
      users.push_back(u.value());
      if (!h.send_cross(h.root(), users.back(), homes[static_cast<std::size_t>(i)]->id,
                        users.back().addr, TokenAmount::whole(100))
               .ok()) {
        return;
      }
    }
    const bool funded = h.run_until(
        [&] {
          for (std::size_t i = 0; i < users.size(); ++i) {
            if (homes[i]->node(0).balance(users[i].addr).is_zero()) {
              return false;
            }
          }
          return true;
        },
        300 * sim::kSecond);
    if (!funded) return;

    for (std::size_t i = 0; i < users.size(); ++i) {
      actors::ExecParams exec;
      exec.code = chain::kCodeKvApp;
      auto dep = h.call(*homes[i], users[i], chain::kInitAddr,
                        actors::init_method::kExec, encode(exec),
                        TokenAmount());
      if (!dep.ok() || !dep.value().ok()) return;
      auto addr = decode<Address>(dep.value().ret);
      if (!addr.ok()) return;
      actors::KvParams put{to_bytes("slot"),
                           to_bytes("v" + std::to_string(i))};
      auto r = h.call(*homes[i], users[i], addr.value(),
                      actors::kv_method::kPut, encode(put), TokenAmount());
      if (!r.ok() || !r.value().ok()) return;
      apps.push_back(addr.value());
    }
  }

  [[nodiscard]] bool ok() const { return apps.size() == users.size() && !apps.empty(); }

  runtime::AtomicExecution make_exec() {
    std::vector<runtime::AtomicPartySpec> specs;
    for (std::size_t i = 0; i < users.size(); ++i) {
      specs.push_back(runtime::AtomicPartySpec{homes[i], users[i], apps[i],
                                               to_bytes("slot")});
    }
    return runtime::AtomicExecution(
        h, h.root(), std::move(specs), [](const std::vector<Bytes>& in) {
          // Rotate values across parties.
          std::vector<Bytes> out(in.size());
          for (std::size_t i = 0; i < in.size(); ++i) {
            out[i] = in[(i + 1) % in.size()];
          }
          return out;
        });
  }
};

void run_commit(benchmark::State& state) {
  const int parties = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  for (auto _ : state) {
    AtomicWorld w(6000 + static_cast<std::uint64_t>(parties) * 10 + depth,
                  parties, depth);
    if (!w.ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    runtime::AtomicExecution exec = w.make_exec();
    const sim::Time t0 = w.h.scheduler().now();
    if (!exec.lock_inputs().ok() || !exec.compute_output().ok()) {
      state.SkipWithError("lock failed");
      return;
    }
    const sim::Time t_locked = w.h.scheduler().now();
    if (!exec.init().ok()) {
      state.SkipWithError("init failed");
      return;
    }
    for (int i = 0; i < parties; ++i) {
      if (!exec.submit(static_cast<std::size_t>(i)).ok()) {
        state.SkipWithError("submit failed");
        return;
      }
    }
    auto decision = exec.await_decision(600 * sim::kSecond);
    if (!decision.ok()) {
      state.SkipWithError("no decision");
      return;
    }
    const sim::Time t_decided = w.h.scheduler().now();
    if (!exec.finalize(decision.value()).ok()) {
      state.SkipWithError("finalize failed");
      return;
    }
    state.counters["phase_lock_ms"] =
        static_cast<double>(t_locked - t0) / 1000.0;
    state.counters["phase_decide_ms"] =
        static_cast<double>(t_decided - t_locked) / 1000.0;
    state.counters["total_sim_ms"] =
        static_cast<double>(w.h.scheduler().now() - t0) / 1000.0;
    state.counters["parties"] = parties;
    state.counters["depth"] = depth;
    state.counters["committed"] =
        decision.value() == actors::AtomicStatus::kCommitted ? 1 : 0;
    sidecar.capture(w.h,
                    "commit/parties=" + std::to_string(parties) +
                        ",depth=" + std::to_string(depth),
                    6000 + static_cast<std::uint64_t>(parties) * 10 +
                        static_cast<std::uint64_t>(depth));
  }
}

BENCHMARK(run_commit)
    ->ArgNames({"parties", "depth"})
    ->Args({2, 1})
    ->Args({3, 1})
    ->Args({4, 1})
    ->Args({2, 2})  // parties two levels below the coordinator
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void run_abort(benchmark::State& state) {
  for (auto _ : state) {
    AtomicWorld w(6100, 2, 1);
    if (!w.ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    runtime::AtomicExecution exec = w.make_exec();
    const sim::Time t0 = w.h.scheduler().now();
    if (!exec.lock_inputs().ok() || !exec.compute_output().ok() ||
        !exec.init().ok() || !exec.submit(0).ok() || !exec.abort(1).ok()) {
      state.SkipWithError("protocol failed");
      return;
    }
    auto decision = exec.await_decision(600 * sim::kSecond);
    if (!decision.ok() ||
        decision.value() != actors::AtomicStatus::kAborted ||
        !exec.finalize(decision.value()).ok()) {
      state.SkipWithError("abort path failed");
      return;
    }
    state.counters["total_sim_ms"] =
        static_cast<double>(w.h.scheduler().now() - t0) / 1000.0;
    state.counters["committed"] = 0;
    sidecar.capture(w.h, "abort/parties=2,depth=1", 6100);
  }
}

BENCHMARK(run_abort)->Iterations(1)->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

// E4 — Fig. 4: content resolution for cross-msgs (push vs pull).
//
// A subnet releases a batch of bottom-up messages to the root. The batch
// travels in the checkpoint as a CID only; the root must obtain the raw
// messages either because the subnet's miners *pushed* them proactively, or
// by *pulling* from the source subnet's topic. We sweep:
//   - push enabled / disabled,
//   - batch size (1 / 10 / 100 messages),
//   - gossip loss (0% / 10%) — lost pushes force pull fallbacks.
//
// Counters: settle_sim_ms (release -> all applied at root), pushes, pulls,
//           resolves_served, resolution share of network bytes.
#include "bench_common.hpp"

namespace hc::bench {
namespace {

SidecarWriter sidecar("fig4_resolution");

void run_resolution(benchmark::State& state) {
  const bool push = state.range(0) != 0;
  const int batch = static_cast<int>(state.range(1));
  const double loss = static_cast<double>(state.range(2)) / 100.0;

  for (auto _ : state) {
    runtime::Hierarchy h(bench_config(
        5000 + static_cast<std::uint64_t>(batch) + (push ? 1 : 0)));
    auto s = h.spawn_subnet(h.root(), "src", bench_params(), 3,
                            TokenAmount::whole(5), subnet_engine());
    if (!s.ok()) {
      state.SkipWithError("spawn failed");
      return;
    }
    runtime::Subnet& src = *s.value();
    for (std::size_t i = 0; i < src.size(); ++i) {
      src.node(i).set_push_resolution(push);
    }

    auto alice = h.make_user("alice", TokenAmount::whole(10000));
    if (!alice.ok()) {
      state.SkipWithError("user failed");
      return;
    }
    auto f = h.send_cross(h.root(), alice.value(), src.id,
                          alice.value().addr,
                          TokenAmount::whole(batch + 10));
    if (!f.ok() ||
        !h.run_until(
            [&] {
              return !src.node(0).balance(alice.value().addr).is_zero();
            },
            120 * sim::kSecond)) {
      state.SkipWithError("funding failed");
      return;
    }

    // Inject loss only for the measured phase.
    h.network().set_drop_rate(loss);
    h.network().reset_stats();
    auto stats_before = [&] {
      runtime::NodeStats total;
      for (const auto& sub : h.subnets()) {
        for (std::size_t i = 0; i < sub->size(); ++i) {
          const auto& st = sub->node(i).stats();
          total.pulls_sent += st.pulls_sent;
          total.pushes_sent += st.pushes_sent;
          total.resolves_served += st.resolves_served;
        }
      }
      return total;
    };
    const runtime::NodeStats before = stats_before();

    // One release per batch message, all inside one checkpoint window.
    runtime::User sink{crypto::KeyPair::from_label("rsink"),
                       Address::key(crypto::KeyPair::from_label("rsink")
                                        .public_key()
                                        .to_bytes())};
    const sim::Time t0 = h.scheduler().now();
    std::uint64_t nonce = src.node(0).account_nonce(alice.value().addr);
    for (int i = 0; i < batch; ++i) {
      actors::CrossParams p;
      p.dest = core::SubnetId::root();
      p.to = sink.addr;
      chain::Message m;
      m.from = alice.value().addr;
      m.to = chain::kScaAddr;
      m.nonce = nonce++;  // pipelined: don't wait for inclusion
      m.value = TokenAmount::whole(1);
      m.method = actors::sca_method::kRelease;
      m.params = encode(p);
      m.gas_limit = 1u << 26;
      m.gas_price = TokenAmount::atto(1);
      if (!src.node(0)
               .submit_message(
                   chain::SignedMessage::sign(std::move(m), alice.value().key))
               .ok()) {
        state.SkipWithError("release submit failed");
        return;
      }
      h.run_for(20 * sim::kMillisecond);
    }
    const bool landed = h.run_until(
        [&] {
          return h.root().node(0).balance(sink.addr) ==
                 TokenAmount::whole(batch);
        },
        600 * sim::kSecond);
    if (!landed) {
      state.SkipWithError("batch did not settle");
      return;
    }
    const runtime::NodeStats after = stats_before();

    state.counters["settle_sim_ms"] =
        static_cast<double>(h.scheduler().now() - t0) / 1000.0;
    state.counters["pushes"] =
        static_cast<double>(after.pushes_sent - before.pushes_sent);
    state.counters["pulls"] =
        static_cast<double>(after.pulls_sent - before.pulls_sent);
    state.counters["resolves"] =
        static_cast<double>(after.resolves_served - before.resolves_served);
    state.counters["batch"] = batch;
    state.counters["push_enabled"] = push ? 1 : 0;
    state.counters["loss_pct"] = loss * 100;
    sidecar.capture(h,
                    std::string("resolution/push=") + (push ? "1" : "0") +
                        ",batch=" + std::to_string(batch) +
                        ",losspct=" + std::to_string(state.range(2)),
                    5000 + static_cast<std::uint64_t>(batch) +
                        (push ? 1 : 0));
  }
}

BENCHMARK(run_resolution)
    ->ArgNames({"push", "batch", "losspct"})
    ->Args({1, 1, 0})
    ->Args({1, 10, 0})
    ->Args({1, 100, 0})
    ->Args({0, 1, 0})
    ->Args({0, 10, 0})
    ->Args({0, 100, 0})
    ->Args({1, 10, 10})  // pushes may be lost: pull fallback kicks in
    ->Args({0, 10, 10})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

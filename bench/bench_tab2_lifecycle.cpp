// E8 — §III subnet lifecycle: gas and latency of every lifecycle operation.
//
// Gas costs come from single-chain execution (they are consensus-state,
// identical everywhere); latencies are end-to-end simulated times over the
// full stack (spawn includes SA deploy + N joins + registration + child
// boot).
//
// Counters: gas_<op> for each operation; spawn_sim_ms for full spawning.
#include "bench_common.hpp"
#include "../tests/harness.hpp"

namespace hc::bench {
namespace {

using testing::ChainWorld;
using testing::User;

SidecarWriter sidecar("tab2_lifecycle");

void run_gas(benchmark::State& state) {
  for (auto _ : state) {
    ChainWorld world;
    User& v0 = world.user("v0", TokenAmount::whole(10000));
    User& v1 = world.user("v1", TokenAmount::whole(10000));
    core::SubnetParams params;
    params.name = "lifecycle";
    params.min_validator_stake = TokenAmount::whole(5);
    params.min_collateral = TokenAmount::whole(10);
    params.checkpoint_period = 10;
    params.checkpoint_policy =
        core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};

    // Deploy.
    actors::ExecParams exec;
    exec.code = chain::kCodeSubnetActor;
    exec.ctor_state = actors::make_sa_ctor_state(params);
    auto deploy = world.call(v0, chain::kInitAddr, actors::init_method::kExec,
                             encode(exec), TokenAmount());
    const Address sa = decode<Address>(deploy.ret).value_or(Address());
    state.counters["gas_deploy_sa"] = static_cast<double>(deploy.gas_used);

    // Joins (the second one triggers SCA registration).
    auto join0 = world.call(v0, sa, actors::sa_method::kJoin,
                            encode(actors::JoinParams{v0.key.public_key()}),
                            TokenAmount::whole(5));
    auto join1 = world.call(v1, sa, actors::sa_method::kJoin,
                            encode(actors::JoinParams{v1.key.public_key()}),
                            TokenAmount::whole(5));
    state.counters["gas_join"] = static_cast<double>(join0.gas_used);
    state.counters["gas_join_registering"] =
        static_cast<double>(join1.gas_used);

    // Cross-msgs.
    const core::SubnetId child = core::SubnetId::root().child(sa);
    actors::CrossParams fund;
    fund.dest = child;
    fund.to = v0.addr;
    auto fund_r = world.call(v0, chain::kScaAddr, actors::sca_method::kFund,
                             encode(fund), TokenAmount::whole(20));
    state.counters["gas_fund"] = static_cast<double>(fund_r.gas_used);

    // Checkpoint submission (empty checkpoint, 1 signature).
    core::SignedCheckpoint sc;
    sc.checkpoint.source = child;
    sc.checkpoint.epoch = 10;
    sc.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("b10"));
    sc.add_signature(v0.key);
    auto cp_r = world.call(v0, sa, actors::sa_method::kSubmitCheckpoint,
                           encode(sc), TokenAmount());
    state.counters["gas_submit_checkpoint"] =
        static_cast<double>(cp_r.gas_used);

    // Save.
    auto save_r = world.call(
        v0, chain::kScaAddr, actors::sca_method::kSave,
        encode(actors::SaveParams{
            Cid::of(CidCodec::kStateRoot, to_bytes("snap"))}),
        TokenAmount());
    state.counters["gas_save"] = static_cast<double>(save_r.gas_used);

    // Leave x2, then kill.
    auto leave_r =
        world.call(v0, sa, actors::sa_method::kLeave, {}, TokenAmount());
    (void)world.call(v1, sa, actors::sa_method::kLeave, {}, TokenAmount());
    auto kill_r =
        world.call(v1, sa, actors::sa_method::kKill, {}, TokenAmount());
    state.counters["gas_leave"] = static_cast<double>(leave_r.gas_used);
    state.counters["gas_kill"] = static_cast<double>(kill_r.gas_used);
  }
}

BENCHMARK(run_gas)->Iterations(1)->Unit(benchmark::kMillisecond);

void run_spawn_latency(benchmark::State& state) {
  const auto n_validators = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    runtime::Hierarchy h(bench_config(8000 + n_validators));
    const sim::Time t0 = h.scheduler().now();
    // Stake sized so even a single validator crosses min_collateral.
    auto s = h.spawn_subnet(h.root(), "spawned", bench_params(),
                            n_validators, TokenAmount::whole(12),
                            subnet_engine());
    if (!s.ok()) {
      state.SkipWithError("spawn failed");
      return;
    }
    const sim::Time registered = h.scheduler().now();
    // Time until the child produces its first 3 blocks (fully live).
    const bool live = h.run_until(
        [&] { return s.value()->node(0).chain().height() >= 3; },
        120 * sim::kSecond);
    if (!live) {
      state.SkipWithError("child not live");
      return;
    }
    state.counters["spawn_sim_ms"] =
        static_cast<double>(registered - t0) / 1000.0;
    state.counters["live_sim_ms"] =
        static_cast<double>(h.scheduler().now() - t0) / 1000.0;
    state.counters["validators"] = static_cast<double>(n_validators);
    sidecar.capture(h, "spawn/validators=" + std::to_string(n_validators),
                    8000 + n_validators);
  }
}

BENCHMARK(run_spawn_latency)
    ->ArgName("validators")
    ->Arg(1)
    ->Arg(3)
    ->Arg(7)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Inactive-state churn: leave below minimum, rejoin, verify transitions.
void run_churn(benchmark::State& state) {
  for (auto _ : state) {
    ChainWorld world;
    User& v0 = world.user("c-v0", TokenAmount::whole(1000));
    User& v1 = world.user("c-v1", TokenAmount::whole(1000));
    core::SubnetParams params;
    params.min_validator_stake = TokenAmount::whole(5);
    params.min_collateral = TokenAmount::whole(10);
    params.checkpoint_period = 10;
    params.checkpoint_policy =
        core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
    const Address sa = world.deploy_sa(v0, params);
    int transitions = 0;
    for (User* v : {&v0, &v1}) {
      (void)world.call(*v, sa, actors::sa_method::kJoin,
                       encode(actors::JoinParams{v->key.public_key()}),
                       TokenAmount::whole(6));
    }
    for (int round = 0; round < 8; ++round) {
      (void)world.call(v1, sa, actors::sa_method::kLeave, {}, TokenAmount());
      if (world.sca_state().subnets.begin()->second.status ==
          core::SubnetStatus::kInactive) {
        ++transitions;
      }
      (void)world.call(v1, sa, actors::sa_method::kJoin,
                       encode(actors::JoinParams{v1.key.public_key()}),
                       TokenAmount::whole(6));
      if (world.sca_state().subnets.begin()->second.status ==
          core::SubnetStatus::kActive) {
        ++transitions;
      }
    }
    state.counters["status_transitions"] = transitions;  // expect 16
  }
}

BENCHMARK(run_churn)->Iterations(1)->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

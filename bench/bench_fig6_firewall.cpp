// E6 — §II firewall property: bounded impact of a compromised subnet.
//
// A fully Byzantine child subnet (its entire validator set colludes, so
// signature policies cannot help) forges checkpoints attempting to extract
// `claimed` tokens from the parent while its legitimate circulating supply
// is `supply`. The measured `extracted` amount must never exceed `supply` —
// the paper's bound: "the impact of a child subnet being compromised is
// limited to, at most, its circulating supply of the token".
//
// Also measures fraud-proof slashing: collateral burned when an
// equivocating checkpoint pair is submitted.
//
// Counters: supply, claimed, extracted, bound_holds (1/0), slashed.
#include "bench_common.hpp"
#include "../tests/harness.hpp"

namespace hc::bench {
namespace {

using testing::ChainWorld;
using testing::User;

struct FirewallWorld {
  ChainWorld world;
  User* validator;
  Address sa;
  core::SubnetId child;
  TokenAmount supply;

  explicit FirewallWorld(TokenAmount target_supply)
      : validator(&world.user("byz-val", TokenAmount::whole(100000))) {
    core::SubnetParams params;
    params.name = "byz";
    params.min_validator_stake = TokenAmount::whole(5);
    params.min_collateral = TokenAmount::whole(10);
    params.checkpoint_period = 10;
    params.checkpoint_policy =
        core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
    sa = world.deploy_sa(*validator, params);
    auto r = world.call(*validator, sa, actors::sa_method::kJoin,
                        encode(actors::JoinParams{validator->key.public_key()}),
                        TokenAmount::whole(10));
    child = core::SubnetId::root().child(sa);
    if (!r.ok()) return;
    // Honest user injects the circulating supply.
    if (!target_supply.is_zero()) {
      User& funder = world.user("funder", TokenAmount::whole(100000));
      actors::CrossParams p;
      p.dest = child;
      p.to = funder.addr;
      auto fr = world.call(funder, chain::kScaAddr,
                           actors::sca_method::kFund, encode(p),
                           target_supply);
      if (!fr.ok()) return;
    }
    supply = target_supply;
  }

  /// Byzantine withdrawal attempt: a validly signed checkpoint claiming
  /// `claim` tokens leave the subnet. Returns the amount that actually
  /// became spendable in the parent.
  TokenAmount attack(TokenAmount claim) {
    const Address thief =
        Address::key(crypto::KeyPair::from_label("thief").public_key()
                         .to_bytes());
    core::CrossMsgBatch batch;
    core::CrossMsg m;
    m.from_subnet = child;
    m.to_subnet = core::SubnetId::root();
    m.msg.from = Address::id(666);
    m.msg.to = thief;
    m.msg.value = claim;
    batch.msgs.push_back(std::move(m));

    core::SignedCheckpoint sc;
    sc.checkpoint.source = child;
    sc.checkpoint.epoch = next_epoch_;
    next_epoch_ += 10;
    sc.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("forged"));
    sc.checkpoint.prev = last_checkpoint_;
    core::CrossMsgMeta meta;
    meta.from = child;
    meta.to = core::SubnetId::root();
    meta.msgs_cid = batch.cid();
    meta.msg_count = 1;
    meta.value = claim;
    sc.checkpoint.cross_meta.push_back(meta);
    sc.add_signature(validator->key);

    auto submit = world.call(*validator, sa,
                             actors::sa_method::kSubmitCheckpoint, encode(sc),
                             TokenAmount());
    if (!submit.ok()) return TokenAmount();  // firewall rejected outright
    last_checkpoint_ = sc.checkpoint.cid();

    // Execute the adopted batch (what the parent consensus would do).
    const auto sca = world.sca_state();
    if (sca.pending_bottomup.empty()) return TokenAmount();
    actors::ApplyBottomUpParams apply{sca.pending_bottomup.back().nonce,
                                      batch};
    auto applied = world.implicit(chain::kScaAddr,
                                  actors::sca_method::kApplyBottomUp,
                                  encode(apply), TokenAmount());
    if (!applied.ok()) return TokenAmount();
    return world.balance(thief);
  }

 private:
  chain::Epoch next_epoch_ = 10;
  Cid last_checkpoint_;
};

void run_firewall(benchmark::State& state) {
  const auto supply = TokenAmount::whole(state.range(0));
  const auto claimed = TokenAmount::whole(state.range(1));
  for (auto _ : state) {
    FirewallWorld w(supply);
    const TokenAmount extracted = w.attack(claimed);
    state.counters["supply"] = static_cast<double>(supply.whole_part());
    state.counters["claimed"] = static_cast<double>(claimed.whole_part());
    state.counters["extracted"] =
        static_cast<double>(extracted.whole_part());
    state.counters["bound_holds"] = extracted <= supply ? 1 : 0;
  }
}

BENCHMARK(run_firewall)
    ->ArgNames({"supply", "claimed"})
    ->Args({0, 50})      // nothing injected: nothing extractable
    ->Args({50, 25})     // legitimate-looking partial withdrawal
    ->Args({50, 50})     // full supply drain (the bound itself)
    ->Args({50, 51})     // one token over: must be rejected
    ->Args({50, 500})    // 10x overdraw
    ->Args({50, 5000})   // 100x overdraw
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void run_slashing(benchmark::State& state) {
  for (auto _ : state) {
    ChainWorld world;
    User& v0 = world.user("sl-v0", TokenAmount::whole(1000));
    User& v1 = world.user("sl-v1", TokenAmount::whole(1000));
    core::SubnetParams params;
    params.min_validator_stake = TokenAmount::whole(5);
    params.min_collateral = TokenAmount::whole(10);
    params.checkpoint_period = 10;
    params.checkpoint_policy =
        core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
    const Address sa = world.deploy_sa(v0, params);
    for (User* v : {&v0, &v1}) {
      (void)world.call(*v, sa, actors::sa_method::kJoin,
                       encode(actors::JoinParams{v->key.public_key()}),
                       TokenAmount::whole(10));
    }
    const core::SubnetId child = core::SubnetId::root().child(sa);

    // v0 equivocates: two checkpoints for the same epoch.
    auto mk = [&](const char* tag) {
      core::SignedCheckpoint sc;
      sc.checkpoint.source = child;
      sc.checkpoint.epoch = 10;
      sc.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes(tag));
      sc.add_signature(v0.key);
      return sc;
    };
    core::FraudProof proof{mk("fork-a"), mk("fork-b")};

    const TokenAmount collateral_before =
        world.sca_state().subnets.begin()->second.collateral;
    User& reporter = world.user("reporter", TokenAmount::whole(100));
    auto r = world.call(reporter, chain::kScaAddr,
                        actors::sca_method::kSubmitFraudProof, encode(proof),
                        TokenAmount());
    const TokenAmount collateral_after =
        world.sca_state().subnets.begin()->second.collateral;

    state.counters["fraud_accepted"] = r.ok() ? 1 : 0;
    state.counters["collateral_before"] =
        static_cast<double>(collateral_before.whole_part());
    state.counters["slashed"] = static_cast<double>(
        (collateral_before - collateral_after).whole_part());
    state.counters["gas_used"] = static_cast<double>(r.gas_used);
  }
}

BENCHMARK(run_slashing)->Iterations(1)->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

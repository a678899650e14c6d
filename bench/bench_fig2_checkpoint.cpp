// E2 — Fig. 2: checkpoint template population, aggregation and signing.
//
// Three mechanism sweeps:
//   (a) window size: cost and size of cutting a checkpoint whose window
//       holds N bottom-up cross-msgs (template population),
//   (b) children: aggregation cost when the checkpoint carries metas and
//       child checks from C children (the checkpoint tree),
//   (c) policy: signing/verification cost and wire size of the checkpoint
//       proof under single / multi-sig / threshold policies with S signers.
//
// Counters: cut_ms (wall-clock per cut), checkpoint_bytes, metas,
//           sign_verify_ms, proof_bytes.
#include <chrono>

#include "bench_common.hpp"
#include "../tests/harness.hpp"

namespace hc::bench {
namespace {

using testing::ChainWorld;

/// Build an SCA state whose window holds `n_msgs` pending bottom-up
/// messages and `n_children` child subnets with forwarded metas.
actors::ScaState loaded_sca(const core::SubnetId& self, int n_msgs,
                            int n_children) {
  actors::ScaState s;
  s.self = self;
  s.checkpoint_period = 10;
  for (int i = 0; i < n_msgs; ++i) {
    core::CrossMsg m;
    m.from_subnet = self;
    m.to_subnet = core::SubnetId::root();
    m.msg.from = Address::id(1000 + static_cast<std::uint64_t>(i));
    m.msg.to = Address::id(2000 + static_cast<std::uint64_t>(i % 16));
    m.msg.value = TokenAmount::whole(1);
    s.window_msgs.push_back(std::move(m));
  }
  for (int c = 0; c < n_children; ++c) {
    const Address sa = Address::id(100 + static_cast<std::uint64_t>(c));
    const core::SubnetId child = self.child(sa);
    actors::SubnetEntry entry;
    entry.id = child;
    entry.sa = sa;
    s.subnets.emplace(sa, entry);
    s.window_children.push_back(core::ChildCheck{
        child, {Cid::of(CidCodec::kCheckpoint,
                        to_bytes("child-cp-" + std::to_string(c)))}});
    core::CrossMsgMeta meta;  // a meta forwarded from this child
    meta.from = child;
    meta.to = core::SubnetId::root();
    meta.msgs_cid =
        Cid::of(CidCodec::kCrossMsgs, to_bytes("batch-" + std::to_string(c)));
    meta.msg_count = 8;
    s.forward_meta.push_back(std::move(meta));
  }
  return s;
}

void run_cut(benchmark::State& state) {
  const int n_msgs = static_cast<int>(state.range(0));
  const int n_children = static_cast<int>(state.range(1));
  const core::SubnetId self = core::SubnetId::root().child(Address::id(100));

  double total_ms = 0;
  double checkpoint_bytes = 0;
  double metas = 0;
  int iters = 0;
  for (auto _ : state) {
    ChainWorld world(self);
    chain::ActorEntry& sca = world.tree().get_or_create(chain::kScaAddr);
    sca.state = encode(loaded_sca(self, n_msgs, n_children));

    actors::CutParams cut;
    cut.epoch = 10;
    cut.proof = Cid::of(CidCodec::kBlock, to_bytes("anchor"));

    const auto t0 = std::chrono::steady_clock::now();
    auto receipt = world.implicit(chain::kScaAddr,
                                  actors::sca_method::kCutCheckpoint,
                                  encode(cut), TokenAmount());
    const auto t1 = std::chrono::steady_clock::now();
    if (!receipt.ok()) {
      state.SkipWithError("cut failed");
      return;
    }
    auto cp = decode<core::Checkpoint>(receipt.ret);
    if (!cp.ok()) {
      state.SkipWithError("no checkpoint returned");
      return;
    }
    total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    checkpoint_bytes = static_cast<double>(encode(cp.value()).size());
    metas = static_cast<double>(cp.value().cross_meta.size());
    ++iters;
  }
  state.counters["cut_ms"] = total_ms / iters;
  state.counters["checkpoint_bytes"] = checkpoint_bytes;
  state.counters["metas"] = metas;
  state.counters["window_msgs"] = n_msgs;
  state.counters["children"] = n_children;
}

// (a) window-size sweep, no children.
BENCHMARK(run_cut)
    ->ArgNames({"msgs", "children"})
    ->Args({10, 0})
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({5000, 0})
    // (b) children sweep, fixed window.
    ->Args({100, 1})
    ->Args({100, 4})
    ->Args({100, 16})
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// (c) signature policies: sign+verify cost and proof size vs signer count.
void run_policy(benchmark::State& state) {
  const auto kind = static_cast<core::SignaturePolicyKind>(state.range(0));
  const int signers = static_cast<int>(state.range(1));

  core::Checkpoint cp;
  cp.source = core::SubnetId::root().child(Address::id(100));
  cp.epoch = 10;
  cp.proof = Cid::of(CidCodec::kBlock, to_bytes("anchor"));

  std::vector<crypto::KeyPair> keys;
  std::vector<crypto::PublicKey> validators;
  for (int i = 0; i < signers; ++i) {
    keys.push_back(crypto::KeyPair::from_label("pol-" + std::to_string(i)));
    validators.push_back(keys.back().public_key());
  }
  core::SignaturePolicy policy{kind,
                               static_cast<std::uint32_t>(
                                   kind == core::SignaturePolicyKind::kSingle
                                       ? 1
                                       : signers)};

  double ms = 0;
  int iters = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    core::SignedCheckpoint sc;
    sc.checkpoint = cp;
    sc.checkpoint.epoch = 10 + iters;  // fresh content: defeat the sigcache
    const int to_sign = kind == core::SignaturePolicyKind::kSingle ? 1 : signers;
    for (int i = 0; i < to_sign; ++i) sc.add_signature(keys[static_cast<std::size_t>(i)]);
    const bool ok = policy.verify(sc, validators).ok();
    const auto t1 = std::chrono::steady_clock::now();
    if (!ok) {
      state.SkipWithError("policy verify failed");
      return;
    }
    ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    ++iters;
    benchmark::DoNotOptimize(sc);
  }
  state.counters["sign_verify_ms"] = ms / iters;
  state.counters["proof_bytes"] = static_cast<double>(
      policy.compact_proof_size(static_cast<std::size_t>(signers)));
  state.counters["signers"] = signers;
}

BENCHMARK(run_policy)
    ->ArgNames({"kind", "signers"})
    ->Args({0, 1})    // single
    ->Args({1, 4})    // multisig 4
    ->Args({1, 16})   // multisig 16
    ->Args({1, 64})   // multisig 64
    ->Args({2, 4})    // threshold 4 (aggregate wire size)
    ->Args({2, 16})
    ->Args({2, 64})
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()

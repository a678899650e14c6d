// Parallel-execution determinism: every chaos scenario must produce
// byte-identical results at any worker-thread count (DESIGN.md §11). The
// ChaosRunner fingerprint covers per-subnet state roots, the full metrics
// JSON export and the canonicalized trace export, so "equal fingerprints"
// means the N-thread run is observationally indistinguishable from the
// sequential one — the bar the ParallelExecutor's conservative windows and
// barrier-ordered cross-lane delivery are designed to meet.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "chaos/runner.hpp"
#include "net/envelope.hpp"
#include "obs/export.hpp"
#include "runtime/hierarchy.hpp"

namespace hc::chaos {
namespace {

RunnerConfig fast_config(std::size_t threads) {
  RunnerConfig cfg;
  cfg.children = 2;
  cfg.nested = 0;
  cfg.warmup = sim::kSecond;
  cfg.fault_window = 8 * sim::kSecond;
  cfg.settle = 180 * sim::kSecond;
  cfg.threads = threads;
  return cfg;
}

Scenario find_scenario(const std::vector<Scenario>& scenarios,
                       const std::string& name) {
  for (const auto& s : scenarios) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no such scenario: " << name;
  return {};
}

RunnerConfig recovery_config(std::size_t threads) {
  RunnerConfig cfg = fast_config(threads);
  cfg.durability = true;
  return cfg;
}

/// Run `scenario` sequentially, then at 2 and 4 worker threads, and demand
/// bit-for-bit equality of every deterministic artifact.
void expect_thread_invariant_cfg(RunnerConfig (*make)(std::size_t),
                                 const Scenario& scenario,
                                 std::uint64_t seed) {
  const RunResult ref = ChaosRunner(make(1)).run(scenario, seed);
  ASSERT_TRUE(ref.ok()) << "1-thread reference failed: " << ref.summary();
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const RunResult r = ChaosRunner(make(threads)).run(scenario, seed);
    ASSERT_TRUE(r.ok()) << scenario.name << " @" << threads << " threads: "
                        << r.summary();
    EXPECT_EQ(ref.state_roots, r.state_roots)
        << scenario.name << ": state roots diverged at " << threads
        << " threads";
    EXPECT_EQ(ref.metrics_json, r.metrics_json)
        << scenario.name << ": metrics diverged at " << threads << " threads";
    EXPECT_EQ(ref.fingerprint, r.fingerprint)
        << scenario.name << ": fingerprint diverged at " << threads
        << " threads";
  }
}

void expect_thread_invariant(const Scenario& scenario, std::uint64_t seed) {
  expect_thread_invariant_cfg(fast_config, scenario, seed);
}

TEST(ParallelDeterminism, EnvelopeDecodeCacheIsTransparent) {
  // The decode-once envelope cache is a pure optimization: a same-seed run
  // with the cache disabled (every replica re-parses) must be byte-
  // identical to the cached run across state roots, the full metrics
  // export and the fingerprint.
  const Scenario scenario =
      find_scenario(ChaosRunner::standard_scenarios(), "baseline");
  const RunResult cached = ChaosRunner(fast_config(1)).run(scenario, 21);
  ASSERT_TRUE(cached.ok()) << cached.summary();

  struct CacheOff {
    CacheOff() { net::Envelope::set_cache_enabled(false); }
    ~CacheOff() { net::Envelope::set_cache_enabled(true); }
  } off_guard;
  const RunResult uncached = ChaosRunner(fast_config(1)).run(scenario, 21);
  ASSERT_TRUE(uncached.ok()) << uncached.summary();

  EXPECT_EQ(cached.state_roots, uncached.state_roots);
  EXPECT_EQ(cached.metrics_json, uncached.metrics_json);
  EXPECT_EQ(cached.fingerprint, uncached.fingerprint);
}

TEST(ParallelDeterminism, EnvelopeDecodeSharingAcrossThreads) {
  // 1/2/4-thread byte-identity with the decode cache live: worker lanes
  // racing decoded<T>() insertions (cross-subnet resolution envelopes) must
  // not perturb any deterministic artifact — and the cache must actually be
  // exercised, or this test would vacuously pass on a dead cache.
  const std::uint64_t hits_before = net::Envelope::decode_hits();
  expect_thread_invariant(
      find_scenario(ChaosRunner::standard_scenarios(), "baseline"), 23);
  EXPECT_GT(net::Envelope::decode_hits(), hits_before);
}

TEST(ParallelDeterminism, Baseline) {
  expect_thread_invariant(
      find_scenario(ChaosRunner::standard_scenarios(), "baseline"), 11);
}

TEST(ParallelDeterminism, Loss20) {
  expect_thread_invariant(
      find_scenario(ChaosRunner::standard_scenarios(), "loss-20"), 11);
}

TEST(ParallelDeterminism, PartitionChild) {
  expect_thread_invariant(
      find_scenario(ChaosRunner::standard_scenarios(), "partition-child"),
      11);
}

TEST(ParallelDeterminism, CrashSigner) {
  expect_thread_invariant(
      find_scenario(ChaosRunner::standard_scenarios(), "crash-signer"), 11);
}

TEST(ParallelDeterminism, CrashParentView) {
  expect_thread_invariant(
      find_scenario(ChaosRunner::standard_scenarios(), "crash-parent-view"),
      11);
}

TEST(ParallelDeterminism, GrayValidator) {
  expect_thread_invariant(
      find_scenario(ChaosRunner::standard_scenarios(), "gray-validator"), 11);
}

TEST(ParallelDeterminism, DupReorderRoot) {
  expect_thread_invariant(
      find_scenario(ChaosRunner::standard_scenarios(), "dup-reorder-root"),
      11);
}

TEST(ParallelDeterminism, SurgeOverload) {
  // Overload shedding is part of the deterministic surface: the surge,
  // every mempool eviction, and every kOverloaded rejection must replay
  // bit-for-bit at any worker count (DESIGN.md §14).
  expect_thread_invariant(
      find_scenario(ChaosRunner::standard_scenarios(), "surge-overload"),
      11);
}

TEST(ParallelDeterminism, ByzantineEquivocate) {
  expect_thread_invariant(
      find_scenario(ChaosRunner::byzantine_scenarios(), "byz-equivocate"),
      11);
}

TEST(ParallelDeterminism, RecoverTornTail) {
  // Durable WAL appends, seeded disk damage, recovery replay and the
  // resync histogram all join the deterministic surface (DESIGN.md §15):
  // the whole crash/recover cycle must replay bit-for-bit at any worker
  // count.
  expect_thread_invariant_cfg(
      recovery_config,
      find_scenario(ChaosRunner::recovery_scenarios(), "recover-torn-tail"),
      11);
}

TEST(ParallelDeterminism, RecoverDiskLost) {
  expect_thread_invariant_cfg(
      recovery_config,
      find_scenario(ChaosRunner::recovery_scenarios(), "recover-disk-lost"),
      11);
}

TEST(ParallelDeterminism, BftCrashRestart) {
  // The chaos scenarios run PoA subnets only, so this is the one check that
  // the BFT engines replay bit-for-bit across lanes: a durable PoA root with
  // a 7-validator Tendermint child and a 7-validator rrBFT child; validator
  // 2 of each crashes losing its un-fsynced suffix and restarts 1 s later.
  struct Outcome {
    std::string heads;  // per node: height and head CID
    std::string metrics_json;
    std::string trace_json;
  };
  const auto run = [](std::size_t threads) {
    runtime::HierarchyConfig cfg;
    cfg.seed = 29;
    cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
    cfg.root_params.consensus = core::ConsensusType::kPoaRoundRobin;
    cfg.root_params.min_validator_stake = TokenAmount::whole(5);
    cfg.root_params.min_collateral = TokenAmount::whole(10);
    cfg.root_params.checkpoint_period = 5;
    cfg.root_validators = 3;
    cfg.root_engine.block_time = 100 * sim::kMillisecond;
    cfg.durability.enabled = true;
    cfg.threads = threads;
    runtime::Hierarchy h(cfg);
    consensus::EngineConfig fast;
    fast.block_time = 100 * sim::kMillisecond;
    std::vector<runtime::Subnet*> children;
    for (const auto type : {core::ConsensusType::kTendermint,
                            core::ConsensusType::kRoundRobinBft}) {
      core::SubnetParams params = cfg.root_params;
      params.consensus = type;
      auto spawned =
          h.spawn_subnet(h.root(), std::string(core::consensus_name(type)),
                         params, 7, TokenAmount::whole(6), fast);
      EXPECT_TRUE(spawned.ok());
      if (spawned.ok()) children.push_back(spawned.value());
    }
    h.run_for(2 * sim::kSecond);
    storage::DiskFault fault;
    fault.kind = storage::DiskFault::Kind::kLoseSuffix;
    fault.seed = 5;
    for (auto* child : children) {
      EXPECT_TRUE(h.crash_node(*child, 2, fault).ok());
    }
    h.run_for(sim::kSecond);
    for (auto* child : children) {
      EXPECT_TRUE(h.restart_node(*child, 2).ok());
    }
    h.run_for(3 * sim::kSecond);
    for (const auto* child : children) {
      // Both engines made progress, and each victim rejoined its peers.
      EXPECT_GT(child->node(0).chain().height(), 20);
      EXPECT_EQ(child->node(2).chain().head().cid(),
                child->node(0).chain().head().cid());
    }

    Outcome out;
    for (const auto& subnet : h.subnets()) {
      for (std::size_t i = 0; i < subnet->size(); ++i) {
        const auto& chain = subnet->node(i).chain();
        out.heads += subnet->id.to_string() + "/" + std::to_string(i) + "@" +
                     std::to_string(chain.height()) + "=" +
                     chain.head().cid().to_hex() + "\n";
      }
    }
    out.metrics_json = obs::metrics_to_json(h.obs().metrics);
    out.trace_json = obs::trace_to_chrome_json(h.obs().tracer);
    return out;
  };

  const Outcome ref = run(1);
  ASSERT_FALSE(ref.heads.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const Outcome r = run(threads);
    EXPECT_EQ(ref.heads, r.heads) << threads << " threads";
    EXPECT_EQ(ref.metrics_json, r.metrics_json) << threads << " threads";
    EXPECT_EQ(ref.trace_json, r.trace_json) << threads << " threads";
  }
  // FNV-1a over the three exports: the value to compare across builds.
  std::uint64_t fp = 14695981039346656037ull;
  for (const std::string* part :
       {&ref.heads, &ref.metrics_json, &ref.trace_json}) {
    for (const unsigned char c : *part) {
      fp ^= c;
      fp *= 1099511628211ull;
    }
  }
  std::printf("BftCrashRestart fingerprint %016llx\n",
              static_cast<unsigned long long>(fp));
}

}  // namespace
}  // namespace hc::chaos

// Overload-control tests (DESIGN.md §14): bounded mempool admission and
// deterministic eviction order, the nonce-gap hole regression, and a surge
// smoke over the chaos runner proving peaks stay under every cap while the
// admitted traffic still settles, and the SCA's top-down circuit breaker
// (window-cap trip, shed-and-revert, close on the child's checkpoint).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "chain/mempool.hpp"
#include "chaos/invariants.hpp"
#include "chaos/runner.hpp"
#include "common/capacity.hpp"
#include "crypto/schnorr.hpp"

namespace hc::chain {
namespace {

using common::ShedReason;

crypto::KeyPair sender_key(std::size_t i) {
  return crypto::KeyPair::from_label("overload/sender/" + std::to_string(i));
}

SignedMessage make_msg(std::size_t sender, std::uint64_t nonce,
                       std::uint64_t gas_price = 1) {
  const auto key = sender_key(sender);
  Message m;
  m.from = Address::key(key.public_key().to_bytes());
  m.to = m.from;
  m.nonce = nonce;
  m.gas_limit = 1u << 22;
  m.gas_price = TokenAmount::atto(static_cast<std::int64_t>(gas_price));
  return SignedMessage::sign(std::move(m), key);
}

/// Per-sender pending nonces, recovered through select() with a huge
/// budget. Selection walks each sender's consecutive run from nonce 0, so
/// it reveals exactly the contiguous-from-zero contents these tests assert.
std::map<Address, std::vector<std::uint64_t>> pool_contents(
    const Mempool& pool) {
  auto picked = pool.select(1u << 20, [](const Address&) { return 0; });
  std::map<Address, std::vector<std::uint64_t>> out;
  for (const auto& sm : picked) {
    out[sm.message.from].push_back(sm.message.nonce);
  }
  return out;
}

TEST(MempoolOverload, NonceGapRejectsFarFutureNonces) {
  // Regression for the memory-exhaustion hole: one sender parking
  // far-future nonces used to grow the pool without bound, and
  // prune_stale (driven by the on-chain nonce) could never reclaim them.
  MempoolConfig cfg;
  cfg.nonce_gap = 16;
  Mempool pool(cfg);
  ASSERT_TRUE(pool.add(make_msg(0, 0), /*next_nonce=*/0).ok());
  ASSERT_TRUE(pool.add(make_msg(0, 15), 0).ok());  // last inside the window
  const Status far = pool.add(make_msg(0, 16), 0);
  EXPECT_EQ(far.error().code(), Errc::kOverloaded);
  EXPECT_EQ(pool.add(make_msg(0, 100000), 0).error().code(),
            Errc::kOverloaded);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.shed_stats().by(ShedReason::kNonceGap), 2u);
  // The window slides with the chain: once next_nonce advances, the same
  // nonce is admissible.
  EXPECT_TRUE(pool.add(make_msg(0, 16), 1).ok());
}

TEST(MempoolOverload, NonceGapZeroDisablesTheWindow) {
  MempoolConfig cfg;
  cfg.nonce_gap = 0;
  Mempool pool(cfg);
  EXPECT_TRUE(pool.add(make_msg(0, 1u << 30), 0).ok());
}

TEST(MempoolOverload, PerSenderCapOnlyTradesTheTailForALowerNonce) {
  MempoolConfig cfg;
  cfg.max_per_sender = 4;
  Mempool pool(cfg);
  for (std::uint64_t n = 1; n <= 4; ++n) {
    ASSERT_TRUE(pool.add(make_msg(0, n), 0).ok());
  }
  // At cap, a HIGHER nonce than the tail is refused outright...
  EXPECT_EQ(pool.add(make_msg(0, 5), 0).error().code(), Errc::kOverloaded);
  EXPECT_EQ(pool.shed_stats().by(ShedReason::kPerSenderCap), 1u);
  // ...but a lower nonce displaces the sender's own tail (nonce 4): the
  // lower nonce is includable sooner, so it is strictly more valuable.
  ASSERT_TRUE(pool.add(make_msg(0, 0), 0).ok());
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.shed_stats().by(ShedReason::kEvicted), 1u);
  const auto contents = pool_contents(pool);
  const Address a = Address::key(sender_key(0).public_key().to_bytes());
  EXPECT_EQ(contents.at(a), (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(MempoolOverload, FullPoolEvictsTheLowestPriorityTail) {
  MempoolConfig cfg;
  cfg.max_messages = 4;
  Mempool pool(cfg);
  // Sender 0 pays gas 1, sender 1 pays gas 2.
  ASSERT_TRUE(pool.add(make_msg(0, 0, 1), 0).ok());
  ASSERT_TRUE(pool.add(make_msg(0, 1, 1), 0).ok());
  ASSERT_TRUE(pool.add(make_msg(1, 0, 2), 0).ok());
  ASSERT_TRUE(pool.add(make_msg(1, 1, 2), 0).ok());
  // A richer arrival evicts the cheapest sender's TAIL (0:1), never its
  // includable head (0:0).
  ASSERT_TRUE(pool.add(make_msg(1, 2, 2), 0).ok());
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.shed_stats().by(ShedReason::kEvicted), 1u);
  const auto contents = pool_contents(pool);
  const Address a0 = Address::key(sender_key(0).public_key().to_bytes());
  const Address a1 = Address::key(sender_key(1).public_key().to_bytes());
  EXPECT_EQ(contents.at(a0), (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(contents.at(a1), (std::vector<std::uint64_t>{0, 1, 2}));
  // An arrival that is ITSELF the lowest priority is refused, not traded.
  EXPECT_EQ(pool.add(make_msg(0, 1, 1), 0).error().code(), Errc::kOverloaded);
  EXPECT_EQ(pool.shed_stats().by(ShedReason::kQueueFull), 1u);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(MempoolOverload, EvictionNeverBreaksPerSenderContiguity) {
  // Property sweep: under a mixed-priority flood against a tiny pool,
  // every sender's pending nonces must remain contiguous from 0 after
  // every single add — tail-only eviction can never orphan a higher nonce
  // by removing a lower, still-includable one beneath it.
  MempoolConfig cfg;
  cfg.max_messages = 16;
  cfg.max_per_sender = 8;
  Mempool pool(cfg);
  std::uint64_t next[6] = {};
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;  // fixed seed, deterministic
  for (int step = 0; step < 400; ++step) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t s = (lcg >> 33) % 6;
    // Gas is constant per sender so admission priority is stable.
    (void)pool.add(make_msg(s, next[s]++, (s % 3) + 1), 0);
    EXPECT_LE(pool.size(), cfg.max_messages);
    for (const auto& [addr, nonces] : pool_contents(pool)) {
      for (std::size_t i = 0; i < nonces.size(); ++i) {
        ASSERT_EQ(nonces[i], i)
            << "sender " << addr.to_string() << " lost nonce " << i
            << " while retaining " << nonces.back() << " at step " << step;
      }
    }
  }
  EXPECT_EQ(pool.shed_stats().peak_items, cfg.max_messages);
  EXPECT_GT(pool.shed_stats().total(), 0u);
}

TEST(MempoolOverload, ShedLedgerSeparatesReasons) {
  MempoolConfig cfg;
  cfg.max_messages = 2;
  cfg.nonce_gap = 4;
  Mempool pool(cfg);
  ASSERT_TRUE(pool.add(make_msg(0, 0), 0).ok());
  ASSERT_TRUE(pool.add(make_msg(0, 1), 0).ok());
  (void)pool.add(make_msg(0, 8), 0);   // nonce-gap
  (void)pool.add(make_msg(0, 2), 0);   // queue-full, arrival lowest priority
  const auto& shed = pool.shed_stats();
  EXPECT_EQ(shed.by(ShedReason::kNonceGap), 1u);
  EXPECT_EQ(shed.by(ShedReason::kQueueFull), 1u);
  EXPECT_EQ(shed.total(), 2u);
  EXPECT_EQ(common::to_string(ShedReason::kNonceGap),
            std::string("nonce-gap"));
}

}  // namespace
}  // namespace hc::chain

namespace hc::chaos {
namespace {

/// End-to-end surge smoke: flood far past the mempool caps, then demand
/// convergence, zero invariant violations (bounded peaks, supply conserved
/// under shed), visible shed counters, and same-seed reproducibility.
TEST(OverloadSurge, BoundedShedAndSettle) {
  RunnerConfig cfg;
  cfg.children = 2;
  cfg.nested = 0;
  cfg.warmup = sim::kSecond;
  cfg.fault_window = 8 * sim::kSecond;
  cfg.settle = 180 * sim::kSecond;

  Scenario surge;
  for (const auto& s : ChaosRunner::standard_scenarios()) {
    if (s.name == "surge-overload") surge = s;
  }
  ASSERT_FALSE(surge.name.empty()) << "surge-overload scenario missing";

  ChaosRunner runner(cfg);
  const RunResult a = runner.run(surge, 7);
  ASSERT_TRUE(a.converged) << a.summary();
  ASSERT_TRUE(a.report.ok()) << a.report.to_string();
  // The flood must actually have overflowed the caps somewhere: the
  // node_mempool_shed_total family (registered at zero on every node) has
  // to carry at least one nonzero sample. Family values serialize as
  // `"<labelset>":<int>` pairs inside the family's object.
  const std::size_t fam = a.metrics_json.find("\"node_mempool_shed_total\"");
  ASSERT_NE(fam, std::string::npos);
  const std::size_t fam_end = a.metrics_json.find('}', fam);
  ASSERT_NE(fam_end, std::string::npos);
  std::uint64_t shed_sum = 0;
  for (std::size_t i = fam; i + 1 < fam_end; ++i) {
    if (a.metrics_json[i] != '"' || a.metrics_json[i + 1] != ':') continue;
    shed_sum += std::strtoull(a.metrics_json.c_str() + i + 2, nullptr, 10);
  }
  EXPECT_GT(shed_sum, 0u) << "surge never overflowed a mempool cap";
  EXPECT_NE(a.metrics_json.find("surge"), std::string::npos)
      << "surge fault was never injected";

  const RunResult b = runner.run(surge, 7);
  EXPECT_EQ(a.fingerprint, b.fingerprint) << "surge run is not reproducible";
  EXPECT_EQ(a.state_roots, b.state_roots);
}

// ------------------------------------------------- SCA top-down breaker

core::SubnetParams breaker_subnet_params() {
  core::SubnetParams p;
  p.name = "breaker";
  p.consensus = core::ConsensusType::kPoaRoundRobin;
  p.min_validator_stake = TokenAmount::whole(5);
  p.min_collateral = TokenAmount::whole(10);
  p.checkpoint_period = 5;
  p.checkpoint_policy =
      core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
  return p;
}

/// Root with two children `a` and `b` under a top-down window cap of
/// kCap. Partitioning `a` away stops its checkpoints from reaching the
/// root, so the root's breaker toward `a` stays open once the cap is hit.
struct TopDownBreaker : ::testing::Test {
  static constexpr std::uint64_t kCap = 2;

  runtime::Hierarchy h{[] {
    runtime::HierarchyConfig cfg;
    cfg.seed = 41;
    cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
    cfg.root_params = breaker_subnet_params();
    cfg.root_validators = 3;
    cfg.root_engine.block_time = 100 * sim::kMillisecond;
    cfg.topdown_window_cap = kCap;
    return cfg;
  }()};
  runtime::Subnet* a = nullptr;
  runtime::Subnet* b = nullptr;
  runtime::User alice;

  void SetUp() override {
    consensus::EngineConfig fast;
    fast.block_time = 100 * sim::kMillisecond;
    auto sa = h.spawn_subnet(h.root(), "a", breaker_subnet_params(), 3,
                             TokenAmount::whole(5), fast);
    ASSERT_TRUE(sa.ok()) << sa.error().to_string();
    a = sa.value();
    auto sb = h.spawn_subnet(h.root(), "b", breaker_subnet_params(), 3,
                             TokenAmount::whole(5), fast);
    ASSERT_TRUE(sb.ok()) << sb.error().to_string();
    b = sb.value();
    auto u = h.make_user("breaker-alice", TokenAmount::whole(1000));
    ASSERT_TRUE(u.ok());
    alice = u.value();
  }

  [[nodiscard]] actors::SubnetEntry entry(const runtime::Subnet& child) {
    return h.root().node(0).sca_state().subnets.at(child.sa);
  }

  /// Cut `a` off from the rest of the network and wait out any of its
  /// checkpoints already in flight to the root.
  void isolate_a() {
    std::vector<net::NodeId> group;
    for (std::size_t i = 0; i < a->size(); ++i) {
      group.push_back(a->node(i).net_id());
    }
    h.network().set_partition({group});
    h.run_for(2 * sim::kSecond);
  }

  /// Fill `a`'s window: kCap fresh sends from the root are admitted.
  void fill_window() {
    for (std::uint64_t i = 0; i < kCap; ++i) {
      auto r = h.send_cross(h.root(), alice, a->id, alice.addr,
                            TokenAmount::whole(1));
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r.value().ok()) << r.value().error;
    }
    ASSERT_EQ(entry(*a).topdown_since_checkpoint, kCap);
  }

  /// Heal: `a`'s next checkpoint reaches the root and closes the breaker,
  /// a fresh send toward `a` is admitted again, and the hierarchy settles
  /// with every invariant intact.
  void heal_and_check() {
    const chain::Epoch stalled_at = entry(*a).last_checkpoint_epoch;
    h.network().heal_partition();
    ASSERT_TRUE(h.run_until(
        [&] { return entry(*a).last_checkpoint_epoch > stalled_at; },
        120 * sim::kSecond));
    EXPECT_LT(entry(*a).topdown_since_checkpoint, kCap);
    auto r = h.send_cross(h.root(), alice, a->id, alice.addr,
                          TokenAmount::whole(1));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().ok()) << r.value().error;
    ASSERT_TRUE(h.run_until([&] { return chaos::quiescent(h); },
                            120 * sim::kSecond));
    const chaos::InvariantReport report = chaos::check_invariants(h);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
};

TEST_F(TopDownBreaker, FreshSendAtCapFailsBeforeNonceOrMint) {
  isolate_a();
  fill_window();
  const actors::SubnetEntry before = entry(*a);
  const TokenAmount frozen = h.root().node(0).balance(chain::kScaAddr);

  auto r = h.send_cross(h.root(), alice, a->id, alice.addr,
                        TokenAmount::whole(1));
  ASSERT_TRUE(r.ok());
  const chain::Receipt& refused = r.value();
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.error.rfind("kOverloaded", 0), 0u) << refused.error;
  // The refusal fails the whole call: the shed counter and its
  // sca/topdown-shed event roll back with it.
  EXPECT_TRUE(refused.events.empty());
  const actors::SubnetEntry after = entry(*a);
  EXPECT_EQ(after.topdown_nonce, before.topdown_nonce);
  EXPECT_EQ(after.topdown_queue.size(), before.topdown_queue.size());
  EXPECT_EQ(after.circulating_supply, before.circulating_supply);
  EXPECT_EQ(after.topdown_since_checkpoint, kCap);
  EXPECT_EQ(after.topdown_shed, 0u);
  EXPECT_EQ(h.root().node(0).balance(chain::kScaAddr), frozen);
  ASSERT_EQ(after.last_checkpoint_epoch, before.last_checkpoint_epoch);

  heal_and_check();
}

TEST_F(TopDownBreaker, PathMessageShedAtLcaRevertsToSender) {
  // Fund alice in `b`, the source of the path message.
  ASSERT_TRUE(h.send_cross(h.root(), alice, b->id, alice.addr,
                           TokenAmount::whole(20))
                  .ok());
  ASSERT_TRUE(h.run_until(
      [&] {
        return b->node(0).balance(alice.addr) == TokenAmount::whole(20);
      },
      120 * sim::kSecond));
  isolate_a();
  fill_window();
  const actors::SubnetEntry before = entry(*a);

  // b -> a: up to the root by b's checkpoint, then forwarded down toward
  // `a` at the least common ancestor, where the breaker sheds it.
  auto r = h.send_cross(*b, alice, a->id, alice.addr, TokenAmount::whole(7));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().ok()) << r.value().error;
  const TokenAmount sent_off = b->node(0).balance(alice.addr);
  ASSERT_LE(sent_off, TokenAmount::whole(13));
  ASSERT_TRUE(h.run_until([&] { return entry(*a).topdown_shed == 1; },
                          120 * sim::kSecond));
  const actors::SubnetEntry after = entry(*a);
  EXPECT_EQ(after.topdown_nonce, before.topdown_nonce);
  EXPECT_EQ(after.circulating_supply, before.circulating_supply);
  ASSERT_EQ(after.last_checkpoint_epoch, before.last_checkpoint_epoch);
  // The revert carries the value back down to the sender in `b`.
  EXPECT_TRUE(h.run_until(
      [&] {
        return b->node(0).balance(alice.addr) ==
               sent_off + TokenAmount::whole(7);
      },
      120 * sim::kSecond));

  heal_and_check();
  EXPECT_EQ(entry(*a).topdown_shed, 1u);
}

}  // namespace
}  // namespace hc::chaos

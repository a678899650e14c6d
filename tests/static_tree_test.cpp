// Static genesis-time tree construction + flyweight node state
// (DESIGN.md §17): a TreeSpec boots a whole hierarchy with registration
// state fabricated into each genesis — no spawn protocol. These tests
// check the fabricated state is indistinguishable from the spawned kind
// (checkpoints flow, supply is accounted), and that the memory-engine
// pieces behave: one shared genesis per subnet, viewer-gated parent
// views, bounded chain retention, deterministic mem accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "actors/methods.hpp"
#include "obs/export.hpp"
#include "runtime/hierarchy.hpp"

namespace hc::runtime {
namespace {

core::SubnetParams tree_params(const std::string& name) {
  core::SubnetParams p;
  p.name = name;
  p.consensus = core::ConsensusType::kPoaRoundRobin;
  p.min_validator_stake = TokenAmount::whole(5);
  p.min_collateral = TokenAmount::whole(10);
  p.checkpoint_period = 5;
  p.checkpoint_policy =
      core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
  return p;
}

consensus::EngineConfig fast_engine() {
  consensus::EngineConfig e;
  e.block_time = 100 * sim::kMillisecond;
  e.timeout_base = 300 * sim::kMillisecond;
  return e;
}

/// root (2 validators)
///  ├─ a (1 validator, 1 hot account) ── a0 (7 cold accounts)
///  └─ b (1 validator, 3 cold accounts)
TreeSpec small_city() {
  TreeSpec leaf;
  leaf.name = "a0";
  leaf.params = tree_params("a0");
  leaf.engine = fast_engine();
  leaf.accounts = 7;
  leaf.account_balance = TokenAmount::whole(2);

  TreeSpec a;
  a.name = "a";
  a.params = tree_params("a");
  a.engine = fast_engine();
  a.hot_accounts = 1;
  a.hot_balance = TokenAmount::whole(50);
  a.children.push_back(leaf);

  TreeSpec b;
  b.name = "b";
  b.params = tree_params("b");
  b.engine = fast_engine();
  b.accounts = 3;

  TreeSpec root;
  root.name = "root";
  root.params = tree_params("root");
  root.engine = fast_engine();
  root.n_validators = 2;
  root.children.push_back(a);
  root.children.push_back(b);
  return root;
}

HierarchyConfig tree_config() {
  HierarchyConfig cfg;
  cfg.seed = 13;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  return cfg;
}

struct StaticTreeFixture : ::testing::Test {
  Hierarchy h{tree_config(), small_city()};

  Subnet& at(std::size_t i) { return *h.subnets().at(i); }
};

TEST_F(StaticTreeFixture, BootsWholeTreePreorder) {
  ASSERT_EQ(small_city().subnet_count(), 4u);
  ASSERT_EQ(h.subnets().size(), 4u);
  // Boot order is preorder DFS: root, a, a0, b.
  EXPECT_EQ(at(0).id, core::SubnetId::root());
  EXPECT_EQ(at(1).id.to_string(), "/root/f0100");
  EXPECT_EQ(at(2).id.to_string(), "/root/f0100/f0100");
  EXPECT_EQ(at(3).id.to_string(), "/root/f0101");
  EXPECT_EQ(at(1).parent, &at(0));
  EXPECT_EQ(at(2).parent, &at(1));
  EXPECT_EQ(at(3).parent, &at(0));
  // The k-th child's SA is Address::id(100+k), as Init would have assigned.
  EXPECT_EQ(at(1).sa, Address::id(100));
  EXPECT_EQ(at(3).sa, Address::id(101));
  for (const auto& s : h.subnets()) {
    EXPECT_EQ(s->alive_count(), s->size()) << s->id.to_string();
  }
}

TEST_F(StaticTreeFixture, FabricatedRegistrationMatchesSpawnedState) {
  const auto sca = h.root().node(0).sca_state();
  ASSERT_EQ(sca.subnets.size(), 2u);
  for (const auto& [sa, entry] : sca.subnets) {
    EXPECT_TRUE(sa == Address::id(100) || sa == Address::id(101));
    EXPECT_EQ(entry.sa, sa);
    EXPECT_EQ(entry.collateral, TokenAmount::whole(10));  // 1 validator × 10
    // The child's full genesis supply is escrowed as circulating supply.
    EXPECT_GT(entry.circulating_supply, TokenAmount());
  }
  const auto sa_a = h.root().node(0).sa_state(Address::id(100));
  ASSERT_TRUE(sa_a.has_value());
  EXPECT_TRUE(sa_a->registered);
  ASSERT_EQ(sa_a->validators.size(), 1u);
  EXPECT_EQ(sa_a->total_stake, TokenAmount::whole(10));
  // Mid-tree subnet `a` carries its own SCA entry for the grandchild.
  const auto sca_a = at(1).node(0).sca_state();
  ASSERT_EQ(sca_a.subnets.size(), 1u);
  EXPECT_EQ(sca_a.subnets.begin()->first, Address::id(100));
}

TEST_F(StaticTreeFixture, AccountsArePrefunded) {
  // Cold mass on the leaves: id addresses, balances per spec.
  for (int j = 0; j < 7; ++j) {
    EXPECT_EQ(at(2).node(0).balance(Address::id(1000 + j)),
              TokenAmount::whole(2));
  }
  EXPECT_EQ(at(3).node(0).balance(Address::id(1000)), TokenAmount::whole(1));
  // Hot keyed sender on `a`, re-derivable by label (benches sign with it).
  const auto hot = crypto::KeyPair::from_label("a-hot-0");
  EXPECT_EQ(at(1).node(0).balance(Address::key(hot.public_key().to_bytes())),
            TokenAmount::whole(50));
}

TEST_F(StaticTreeFixture, CheckpointsFlowAtEveryLevel) {
  // Fabricated registration must be indistinguishable from the spawned
  // kind: periodic checkpoints anchor every child in its parent without
  // any traffic.
  ASSERT_TRUE(h.run_until(
      [&] {
        const auto sca = h.root().node(0).sca_state();
        const auto sca_a = at(1).node(0).sca_state();
        if (sca.subnets.size() != 2 || sca_a.subnets.size() != 1) return false;
        for (const auto& [sa, entry] : sca.subnets) {
          if (entry.checkpoints.empty()) return false;
        }
        return !sca_a.subnets.begin()->second.checkpoints.empty();
      },
      90 * sim::kSecond))
      << "checkpoints did not reach every parent SCA";
}

TEST_F(StaticTreeFixture, GenesisIsSharedNotCopied) {
  for (const auto& s : h.subnets()) {
    ASSERT_NE(s->genesis, nullptr) << s->id.to_string();
    // One reference per validator's chain store + the subnet's own.
    EXPECT_EQ(static_cast<std::size_t>(s->genesis.use_count()), 1 + s->size())
        << s->id.to_string();
  }
}

TEST_F(StaticTreeFixture, ParentViewsAreViewerGated) {
  h.run_for(2 * sim::kSecond);
  // Leaves have no child readers: no snapshots materialized, ever.
  EXPECT_EQ(at(2).node(0).viewer_count(), 0u);
  EXPECT_EQ(at(3).node(0).viewer_count(), 0u);
  // Root carries both child validators' views (round-robin over 2 nodes),
  // and `a` carries the grandchild's.
  std::size_t root_viewers = 0;
  for (std::size_t i = 0; i < h.root().size(); ++i) {
    root_viewers += h.root().node(i).viewer_count();
  }
  EXPECT_EQ(root_viewers, 2u);
  EXPECT_EQ(at(1).node(0).viewer_count(), 1u);
}

TEST_F(StaticTreeFixture, DynamicSpawnComposesWithStaticTree) {
  // The faucet survives static construction, so the classic client API
  // still works on top: fund a user and spawn a fifth subnet dynamically.
  auto user = h.make_user("static-alice", TokenAmount::whole(100));
  ASSERT_TRUE(user.ok()) << user.error().to_string();
  auto spawned = h.spawn_subnet(h.root(), "late", tree_params("late"), 1,
                                TokenAmount::whole(10), fast_engine());
  ASSERT_TRUE(spawned.ok()) << spawned.error().to_string();
  // Fabricated deploys advanced the Init nonce: the dynamic SA lands past
  // the static range.
  EXPECT_EQ(spawned.value()->sa, Address::id(102));
  EXPECT_EQ(h.subnets().size(), 5u);
}

// spawn_subnet refuses a subnet without validators; a static tree must
// too, or the parent records it as registered with no collateral and no
// node ever runs it.
TEST(StaticTreeValidation, SubnetWithoutValidatorsIsRejected) {
  TreeSpec spec = small_city();
  spec.children.at(0).children.at(0).n_validators = 0;
  EXPECT_THROW(Hierarchy(tree_config(), spec), std::invalid_argument);
  spec = small_city();
  spec.n_validators = 0;
  EXPECT_THROW(Hierarchy(tree_config(), spec), std::invalid_argument);
}

TEST(StaticTreeRetention, BoundedWindowAndMemGauges) {
  HierarchyConfig cfg = tree_config();
  cfg.chain_retention = {.max_items = 8, .max_bytes = 0};
  cfg.mem_metrics = true;
  TreeSpec spec = small_city();
  Hierarchy h(cfg, spec);
  ASSERT_TRUE(h.run_until(
      [&] { return h.root().node(0).chain().height() >= 20; },
      60 * sim::kSecond));
  for (const auto& s : h.subnets()) {
    for (std::size_t i = 0; i < s->size(); ++i) {
      const auto& chain = s->node(i).chain();
      if (chain.height() < 8) continue;
      EXPECT_GT(chain.base_height(), 0) << s->id.to_string();
      EXPECT_LE(chain.height() - chain.base_height() + 1, 8)
          << s->id.to_string();
      // Finality proofs are retained and pruned with their blocks.
      EXPECT_FALSE(s->node(i).proof_at(chain.height()).empty())
          << s->id.to_string();
      EXPECT_TRUE(s->node(i).proof_at(chain.base_height() - 1).empty())
          << s->id.to_string();
      EXPECT_GT(s->node(i).mem_bytes(), 0u);
    }
  }
  // The opt-in gauges exported (height-paced refresh has fired by h=20).
  const std::string metrics = obs::metrics_to_json(h.obs().metrics);
  EXPECT_NE(metrics.find("node_mem_bytes"), std::string::npos);
  EXPECT_NE(metrics.find("node_mem_peak_bytes"), std::string::npos);
}

TEST(StaticTreeDeterminism, SameSpecSameSeedSameRoots) {
  auto roots = [] {
    Hierarchy h(tree_config(), small_city());
    h.run_for(3 * sim::kSecond);
    std::string out;
    for (const auto& s : h.subnets()) {
      out += s->id.to_string() + "@" +
             std::to_string(s->node(0).chain().height()) + "=" +
             s->node(0).chain().head().header.state_root.to_string() + "\n";
    }
    return out;
  };
  const std::string a = roots();
  const std::string b = roots();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("/root/f0100/f0100@"), std::string::npos);
}

/// Base links of 2 ms ± 0 inside a subnet and 50 ms ± 0 between subnets:
/// every gossip hop takes exactly one of the two, before and after a child
/// validator's crash and restart (a bottom-up release after the restart
/// makes the parent resolve the child's batch), and the cross link is the
/// executor's lookahead.
TEST(CrossSubnetLatency, EveryGossipHopTakesTheBaseOrTheCrossLink) {
  HierarchyConfig cfg = tree_config();
  cfg.threads = 4;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, 0);
  cfg.cross_subnet_latency =
      HierarchyConfig::CrossSubnetLatency{50 * sim::kMillisecond, 0};
  TreeSpec child;
  child.name = "a";
  child.params = tree_params("a");
  child.engine = fast_engine();
  child.n_validators = 3;
  child.hot_accounts = 1;
  TreeSpec root;
  root.name = "root";
  root.params = tree_params("root");
  root.engine = fast_engine();
  root.n_validators = 2;
  root.children.push_back(child);
  Hierarchy h(cfg, root);
  EXPECT_EQ(h.executor().lookahead(), 50 * sim::kMillisecond);

  Subnet& a = *h.subnets().at(1);
  h.run_for(2 * sim::kSecond);
  ASSERT_TRUE(h.crash_node(a, 2).ok());
  h.run_for(sim::kSecond);
  ASSERT_TRUE(h.restart_node(a, 2).ok());

  const obs::Histogram* gossip = h.obs().metrics.find_histogram(
      "net_delivery_latency_us", obs::Labels{{"kind", "gossip"}});
  ASSERT_NE(gossip, nullptr);
  // Bucket 1 is (1 ms, 2 ms] and bucket 5 is (20 ms, 50 ms]: with every
  // observation in one of them, the sum pins each one to its upper edge.
  ASSERT_EQ(gossip->bounds().at(1), 2 * sim::kMillisecond);
  ASSERT_EQ(gossip->bounds().at(5), 50 * sim::kMillisecond);
  const std::uint64_t cross_at_restart = gossip->buckets().at(5);
  const auto key = crypto::KeyPair::from_label("a-hot-0");
  const User sender{key, Address::key(key.public_key().to_bytes())};
  auto release = h.send_cross(a, sender, core::SubnetId::root(), sender.addr,
                              TokenAmount::whole(1));
  ASSERT_TRUE(release.ok() && release.value().ok());
  h.run_for(3 * sim::kSecond);
  const std::uint64_t base = gossip->buckets().at(1);
  const std::uint64_t cross = gossip->buckets().at(5);
  EXPECT_GT(base, 0u);
  EXPECT_GT(cross_at_restart, 0u);
  EXPECT_GT(cross, cross_at_restart);
  EXPECT_EQ(base + cross, gossip->count());
  EXPECT_EQ(gossip->sum(), static_cast<std::int64_t>(
                               base * 2 * sim::kMillisecond +
                               cross * 50 * sim::kMillisecond));
}

/// A volatile PoA validator restarted from genesis leads height 1 (slot 1 of
/// 3). It must first sync to its peers' head: producing its own height 1
/// would fork it off for good (PoA has no reorg), and its peers would then
/// wait forever at the next height it leads.
TEST(StaticTreeRestart, VolatileHeightOneLeaderRejoinsItsPeers) {
  TreeSpec child;
  child.name = "a";
  child.params = tree_params("a");
  child.engine = fast_engine();
  child.n_validators = 3;
  child.hot_accounts = 1;
  TreeSpec root;
  root.name = "root";
  root.params = tree_params("root");
  root.engine = fast_engine();
  root.n_validators = 2;
  root.children.push_back(child);
  Hierarchy h(tree_config(), root);

  Subnet& a = *h.subnets().at(1);
  h.run_for(2 * sim::kSecond);
  ASSERT_TRUE(h.crash_node(a, 1).ok());
  h.run_for(sim::kSecond);
  ASSERT_TRUE(h.restart_node(a, 1).ok());
  h.run_for(2 * sim::kSecond);
  chain::Epoch low = a.nodes[0]->chain().height();
  for (const auto& n : a.nodes) low = std::min(low, n->chain().height());
  EXPECT_GT(low, 22);  // past the first height the restarted node leads
  for (const auto& n : a.nodes) {
    EXPECT_EQ(n->chain().block_at(low)->cid(),
              a.nodes[0]->chain().block_at(low)->cid());
  }

  const auto key = crypto::KeyPair::from_label("a-hot-0");
  const User sender{key, Address::key(key.public_key().to_bytes())};
  auto release = h.send_cross(a, sender, core::SubnetId::root(), sender.addr,
                              TokenAmount::whole(1));
  ASSERT_TRUE(release.ok() && release.value().ok());
}

}  // namespace
}  // namespace hc::runtime

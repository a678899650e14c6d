// Tests for §III-C fund recovery: Merkle state proofs, the SCA Recover
// method's verification chain, and the full-stack kill-and-recover flow.
#include <gtest/gtest.h>

#include "harness.hpp"
#include "runtime/hierarchy.hpp"

namespace hc::testing {
namespace {

namespace sca = actors::sca_method;
using actors::sa_method::kJoin;
using actors::sa_method::kLeave;
using actors::sa_method::kSubmitCheckpoint;

// ------------------------------------------------------- state proofs

TEST(StateProofs, ProveAndVerifyEntry) {
  chain::StateTree tree;
  for (std::uint64_t i = 0; i < 9; ++i) {
    chain::ActorEntry e;
    e.code = chain::kCodeAccount;
    e.balance = TokenAmount::whole(static_cast<std::int64_t>(i));
    tree.set(Address::id(i), e);
  }
  const Cid root = tree.flush();
  for (std::uint64_t i = 0; i < 9; ++i) {
    auto proof = tree.prove(Address::id(i));
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(chain::StateTree::verify_entry(
        root, Address::id(i), *tree.get(Address::id(i)), proof.value()));
  }
}

TEST(StateProofs, RejectsWrongEntryOrAddress) {
  chain::StateTree tree;
  chain::ActorEntry e;
  e.code = chain::kCodeAccount;
  e.balance = TokenAmount::whole(5);
  tree.set(Address::id(1), e);
  tree.set(Address::id(2), e);
  const Cid root = tree.flush();
  auto proof = tree.prove(Address::id(1));
  ASSERT_TRUE(proof.ok());

  chain::ActorEntry inflated = e;
  inflated.balance = TokenAmount::whole(5000);
  EXPECT_FALSE(chain::StateTree::verify_entry(root, Address::id(1), inflated,
                                              proof.value()));
  EXPECT_FALSE(chain::StateTree::verify_entry(root, Address::id(2), e,
                                              proof.value()));
  // Proof against a different root fails.
  tree.get_or_create(Address::id(2)).balance += TokenAmount::atto(1);
  EXPECT_FALSE(chain::StateTree::verify_entry(tree.flush(), Address::id(1), e,
                                              proof.value()));
}

TEST(StateProofs, ProveMissingActorFails) {
  chain::StateTree tree;
  EXPECT_FALSE(tree.prove(Address::id(42)).ok());
}

// -------------------------------------------------- SCA recover (unit)

struct RecoverFixture : ::testing::Test {
  ChainWorld world;
  User* validator = nullptr;
  Address sa;
  core::SubnetId child;
  chain::StateTree child_state;  // simulated child chain state
  chain::BlockHeader child_header;
  core::SignedCheckpoint committed;

  void SetUp() override {
    validator = &world.user("rec-val", TokenAmount::whole(1000));
    core::SubnetParams params;
    params.min_validator_stake = TokenAmount::whole(5);
    params.min_collateral = TokenAmount::whole(10);
    params.checkpoint_period = 10;
    params.checkpoint_policy =
        core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
    sa = world.deploy_sa(*validator, params);
    ASSERT_TRUE(world
                    .call(*validator, sa, kJoin,
                          encode(actors::JoinParams{
                              validator->key.public_key()}),
                          TokenAmount::whole(10))
                    .ok());
    child = core::SubnetId::root().child(sa);

    // Inject supply 30 for alice.
    User& alice = world.user("rec-alice", TokenAmount::whole(1000));
    actors::CrossParams fund;
    fund.dest = child;
    fund.to = alice.addr;
    ASSERT_TRUE(world
                    .call(alice, chain::kScaAddr, sca::kFund, encode(fund),
                          TokenAmount::whole(30))
                    .ok());

    // Simulate the child chain's state: alice holds 30.
    chain::ActorEntry entry;
    entry.code = chain::kCodeAccount;
    entry.balance = TokenAmount::whole(30);
    child_state.set(alice.addr, entry);

    child_header.miner = validator->addr;
    child_header.height = 10;
    child_header.state_root = child_state.flush();

    committed.checkpoint.source = child;
    committed.checkpoint.epoch = 10;
    committed.checkpoint.proof = child_header.cid();
    committed.add_signature(validator->key);
    ASSERT_TRUE(world
                    .call(*validator, sa, kSubmitCheckpoint, encode(committed),
                          TokenAmount())
                    .ok());

    // Kill the subnet (validator leaves, then kills).
    ASSERT_TRUE(world.call(*validator, sa, kLeave, {}, TokenAmount()).ok());
    ASSERT_TRUE(
        world.call(*validator, sa, actors::sa_method::kKill, {}, TokenAmount())
            .ok());
  }

  actors::RecoverParams make_params() {
    User& alice = world.user("rec-alice");
    actors::RecoverParams p;
    p.sa = sa;
    p.checkpoint = committed.checkpoint;
    p.header = child_header;
    p.claimed_addr = alice.addr;
    p.claimed_entry = *child_state.get(alice.addr);
    p.proof = child_state.prove(alice.addr).value();
    return p;
  }
};

TEST_F(RecoverFixture, HappyPathRecoversFunds) {
  User& alice = world.user("rec-alice");
  const TokenAmount before = world.balance(alice.addr);
  auto r = world.call(alice, chain::kScaAddr, sca::kRecover,
                      encode(make_params()), TokenAmount());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(world.balance(alice.addr), before);  // 30 minus gas
  const auto entry = world.sca_state().subnets.begin()->second;
  EXPECT_TRUE(entry.circulating_supply.is_zero());
  ASSERT_EQ(entry.recovered.size(), 1u);
}

TEST_F(RecoverFixture, DoubleRecoveryRejected) {
  User& alice = world.user("rec-alice");
  ASSERT_TRUE(world
                  .call(alice, chain::kScaAddr, sca::kRecover,
                        encode(make_params()), TokenAmount())
                  .ok());
  auto again = world.call(alice, chain::kScaAddr, sca::kRecover,
                          encode(make_params()), TokenAmount());
  EXPECT_FALSE(again.ok());
}

TEST_F(RecoverFixture, OnlyOwnerMayRecover) {
  User& mallory = world.user("rec-mallory");
  auto r = world.call(mallory, chain::kScaAddr, sca::kRecover,
                      encode(make_params()), TokenAmount());
  EXPECT_FALSE(r.ok());
}

TEST_F(RecoverFixture, InflatedBalanceRejected) {
  User& alice = world.user("rec-alice");
  auto p = make_params();
  p.claimed_entry.balance = TokenAmount::whole(5000);  // proof breaks
  auto r = world.call(alice, chain::kScaAddr, sca::kRecover, encode(p),
                      TokenAmount());
  EXPECT_FALSE(r.ok());
}

TEST_F(RecoverFixture, UncommittedCheckpointRejected) {
  User& alice = world.user("rec-alice");
  auto p = make_params();
  p.checkpoint.epoch = 999;  // never committed
  auto r = world.call(alice, chain::kScaAddr, sca::kRecover, encode(p),
                      TokenAmount());
  EXPECT_FALSE(r.ok());
}

TEST_F(RecoverFixture, MismatchedHeaderRejected) {
  User& alice = world.user("rec-alice");
  auto p = make_params();
  p.header.height = 11;  // cid no longer matches checkpoint.proof
  auto r = world.call(alice, chain::kScaAddr, sca::kRecover, encode(p),
                      TokenAmount());
  EXPECT_FALSE(r.ok());
}

TEST_F(RecoverFixture, RecoveryCappedBySupply) {
  // Claim is honest (30) but part of the supply already left through a
  // (simulated) earlier recovery by another account; the remaining claim
  // is capped.
  User& alice = world.user("rec-alice");
  // Simulate: manually drain supply down to 12 via a second account's
  // recovery path is complex; instead verify the cap logic by recovering
  // after the supply was decremented through state surgery at the SCA.
  auto sca_state = world.sca_state();
  sca_state.subnets.begin()->second.circulating_supply = TokenAmount::whole(12);
  world.tree().get_or_create(chain::kScaAddr).state = encode(sca_state);

  const TokenAmount before = world.balance(alice.addr);
  auto r = world.call(alice, chain::kScaAddr, sca::kRecover,
                      encode(make_params()), TokenAmount());
  ASSERT_TRUE(r.ok()) << r.error;
  auto recovered = decode<TokenAmount>(r.ret);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), TokenAmount::whole(12));  // capped
  EXPECT_GT(world.balance(alice.addr), before);
}

// --------------------------------------------------- full-stack recovery

TEST(RecoveryIntegration, KillSubnetAndRecoverStrandedFunds) {
  runtime::HierarchyConfig cfg;
  cfg.seed = 77;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  cfg.root_params.consensus = core::ConsensusType::kPoaRoundRobin;
  cfg.root_params.min_validator_stake = TokenAmount::whole(5);
  cfg.root_params.min_collateral = TokenAmount::whole(10);
  cfg.root_params.checkpoint_period = 5;
  cfg.root_validators = 3;
  cfg.root_engine.block_time = 100 * sim::kMillisecond;
  runtime::Hierarchy h(cfg);

  core::SubnetParams params = cfg.root_params;
  consensus::EngineConfig fast;
  fast.block_time = 100 * sim::kMillisecond;
  auto c = h.spawn_subnet(h.root(), "doomed", params, 2,
                          TokenAmount::whole(6), fast);
  ASSERT_TRUE(c.ok()) << c.error().to_string();
  runtime::Subnet* child = c.value();

  auto alice = h.make_user("ri-alice", TokenAmount::whole(500));
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(h.send_cross(h.root(), alice.value(), child->id,
                           alice.value().addr, TokenAmount::whole(40))
                  .ok());
  ASSERT_TRUE(h.run_until(
      [&] {
        return child->node(0).balance(alice.value().addr) ==
               TokenAmount::whole(40);
      },
      60 * sim::kSecond));

  // Wait for a checkpoint committed AFTER the funding applied, so alice's
  // entry is part of the committed state.
  const auto funded_height = child->node(0).chain().height();
  ASSERT_TRUE(h.run_until(
      [&] {
        const auto sca = h.root().node(0).sca_state();
        auto it = sca.subnets.find(child->sa);
        return it != sca.subnets.end() &&
               it->second.last_checkpoint_epoch > funded_height;
      },
      120 * sim::kSecond));

  // Find the committed checkpoint content via the root chain's events.
  const auto entry = h.root().node(0).sca_state().subnets.at(child->sa);
  core::Checkpoint checkpoint;
  bool found = false;
  const auto& root_store = h.root().node(0).chain();
  for (chain::Epoch hh = root_store.height(); hh >= 1 && !found; --hh) {
    const auto* receipts = h.root().node(0).receipts_at(hh);
    if (receipts == nullptr) break;
    for (const auto& r : *receipts) {
      for (const auto& ev : r.events) {
        if (ev.kind != "sca/checkpoint-committed") continue;
        auto cp = decode<core::Checkpoint>(ev.payload);
        if (cp.ok() && cp.value().cid() == entry.checkpoints.back()) {
          checkpoint = cp.value();
          found = true;
        }
      }
    }
  }
  ASSERT_TRUE(found) << "committed checkpoint content not found in events";

  // Build the recovery proof from the child chain's historic state. Copy
  // the block: the pointer aims into the chain store, which keeps growing
  // (and reallocating) while the kill calls below run the simulation.
  const auto* anchor_ptr =
      child->node(0).chain().block_by_cid(checkpoint.proof);
  ASSERT_NE(anchor_ptr, nullptr);
  const chain::Block anchor_block = *anchor_ptr;
  auto historic = child->node(0).state_at(anchor_block.header.height);
  ASSERT_TRUE(historic.ok()) << historic.error().to_string();
  const auto* alice_entry = historic.value().get(alice.value().addr);
  ASSERT_NE(alice_entry, nullptr);
  auto proof = historic.value().prove(alice.value().addr);
  ASSERT_TRUE(proof.ok());

  // Kill the subnet: validators leave (making it inactive), then kill.
  for (std::size_t i = 0; i < child->validator_keys.size(); ++i) {
    runtime::User v{child->validator_keys[i],
                    Address::key(
                        child->validator_keys[i].public_key().to_bytes())};
    auto r = h.call(h.root(), v, child->sa, actors::sa_method::kLeave, {},
                    TokenAmount());
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().ok()) << r.value().error;
  }
  {
    runtime::User v{child->validator_keys[0],
                    Address::key(
                        child->validator_keys[0].public_key().to_bytes())};
    auto r = h.call(h.root(), v, child->sa, actors::sa_method::kKill, {},
                    TokenAmount());
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().ok()) << r.value().error;
  }

  // Alice's 40 tokens are stranded: recover them on the root.
  actors::RecoverParams rp;
  rp.sa = child->sa;
  rp.checkpoint = checkpoint;
  rp.header = anchor_block.header;
  rp.claimed_addr = alice.value().addr;
  rp.claimed_entry = *alice_entry;
  rp.proof = proof.value();

  const TokenAmount root_before =
      h.root().node(0).balance(alice.value().addr);
  auto rec = h.call(h.root(), alice.value(), chain::kScaAddr, sca::kRecover,
                    encode(rp), TokenAmount());
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  ASSERT_TRUE(rec.value().ok()) << rec.value().error;
  auto amount = decode<TokenAmount>(rec.value().ret);
  ASSERT_TRUE(amount.ok());
  EXPECT_EQ(amount.value(), TokenAmount::whole(40));
  // Balance grew by 40 minus the gas fee of the recover call itself.
  EXPECT_GT(h.root().node(0).balance(alice.value().addr),
            root_before + TokenAmount::whole(39));
}

// ------------------------------------- durable crash recovery (§15)

runtime::HierarchyConfig durable_cfg(std::uint64_t seed) {
  runtime::HierarchyConfig cfg;
  cfg.seed = seed;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  cfg.root_params.consensus = core::ConsensusType::kPoaRoundRobin;
  cfg.root_params.min_validator_stake = TokenAmount::whole(5);
  cfg.root_params.min_collateral = TokenAmount::whole(10);
  cfg.root_params.checkpoint_period = 5;
  cfg.root_validators = 3;
  cfg.root_engine.block_time = 100 * sim::kMillisecond;
  cfg.durability.enabled = true;
  return cfg;
}

struct DurableWorld {
  runtime::Hierarchy h;
  runtime::Subnet* child = nullptr;

  explicit DurableWorld(std::uint64_t seed) : h(durable_cfg(seed)) {
    consensus::EngineConfig fast;
    fast.block_time = 100 * sim::kMillisecond;
    auto c = h.spawn_subnet(h.root(), "dur", h.config().root_params, 3,
                            TokenAmount::whole(6), fast);
    EXPECT_TRUE(c.ok());
    child = c.value();
  }

  [[nodiscard]] chain::Epoch parent_checkpoint_epoch() {
    const auto sca = h.root().node(0).sca_state();
    const auto it = sca.subnets.find(child->sa);
    return it == sca.subnets.end() ? 0 : it->second.last_checkpoint_epoch;
  }

  /// Every alive child validator reports the same head as validator 0.
  [[nodiscard]] bool child_converged() const {
    const auto head = child->api_node().chain().head().cid();
    for (std::size_t i = 0; i < child->size(); ++i) {
      if (!child->alive(i)) return false;
      if (child->node(i).chain().head().cid() != head) return false;
    }
    return true;
  }
};

TEST(DurableRecovery, WalReplayRestartRejoinsAndIsNotSlashed) {
  DurableWorld w(101);
  ASSERT_TRUE(w.h.run_until([&] { return w.parent_checkpoint_epoch() >= 5; },
                            60 * sim::kSecond));
  const chain::Epoch pre_crash = w.child->node(2).chain().height();
  ASSERT_GT(pre_crash, 0);

  storage::DiskFault intact;
  intact.kind = storage::DiskFault::Kind::kKeepAll;
  ASSERT_TRUE(w.h.crash_node(*w.child, 2, intact).ok());
  w.h.run_for(2 * sim::kSecond);
  ASSERT_TRUE(w.h.restart_node(*w.child, 2).ok());

  // The WAL held every committed block: recovery replays the whole chain
  // without touching the network.
  const auto& node = w.child->node(2);
  EXPECT_GE(node.recovered_height(), pre_crash);
  EXPECT_GT(node.recovery_stats().records, 0u);
  EXPECT_EQ(node.recovery_stats().corrupt_records, 0u);
  EXPECT_FALSE(node.recovery_stats().torn_tail);

  ASSERT_TRUE(w.h.run_until(
      [&] {
        return w.child_converged() &&
               w.child->node(2).chain().height() > pre_crash;
      },
      60 * sim::kSecond));
  // Its pre-crash production record survived: rejoining must not have
  // produced anything conflicting, so no fraud was ever provable.
  EXPECT_TRUE(w.h.root().node(0).sca_state().slash_records.empty());
}

TEST(DurableRecovery, RestartWhileParentPartitionedRecoversLocally) {
  DurableWorld w(102);
  ASSERT_TRUE(w.h.run_until([&] { return w.parent_checkpoint_epoch() >= 5; },
                            60 * sim::kSecond));

  storage::DiskFault torn;
  torn.kind = storage::DiskFault::Kind::kTornTail;
  ASSERT_TRUE(w.h.crash_node(*w.child, 1, torn).ok());
  // Cut the whole child subnet off from its parent BEFORE the restart:
  // WAL replay must need no network at all.
  w.h.network().set_partition({w.child->node_ids});
  w.h.run_for(2 * sim::kSecond);
  ASSERT_TRUE(w.h.restart_node(*w.child, 1).ok());
  EXPECT_GT(w.child->node(1).recovered_height(), 0);
  EXPECT_GT(w.child->node(1).recovery_stats().records, 0u);

  w.h.run_for(2 * sim::kSecond);
  const chain::Epoch at_heal = w.parent_checkpoint_epoch();
  w.h.network().heal_partition();

  // After heal the checkpoint pipeline resumes past the partition gap.
  ASSERT_TRUE(w.h.run_until(
      [&] { return w.parent_checkpoint_epoch() > at_heal; },
      120 * sim::kSecond));
  ASSERT_TRUE(
      w.h.run_until([&] { return w.child_converged(); }, 60 * sim::kSecond));
  EXPECT_TRUE(w.h.root().node(0).sca_state().slash_records.empty());
}

TEST(DurableRecovery, TwoValidatorsRestartSameEpochWithoutConflict) {
  DurableWorld w(103);
  ASSERT_TRUE(w.h.run_until([&] { return w.parent_checkpoint_epoch() >= 5; },
                            60 * sim::kSecond));

  storage::DiskFault lose;  // power-loss model
  storage::DiskFault flip;
  flip.kind = storage::DiskFault::Kind::kBitFlip;
  ASSERT_TRUE(w.h.crash_node(*w.child, 1, lose).ok());
  ASSERT_TRUE(w.h.crash_node(*w.child, 2, flip).ok());
  w.h.run_for(2 * sim::kSecond);  // one of three: PoA stalls at most heights

  // Both restart at the same instant and replay whatever their disks kept.
  ASSERT_TRUE(w.h.restart_node(*w.child, 1).ok());
  ASSERT_TRUE(w.h.restart_node(*w.child, 2).ok());

  const chain::Epoch stalled = w.child->api_node().chain().height();
  ASSERT_TRUE(w.h.run_until(
      [&] {
        return w.child_converged() &&
               w.child->api_node().chain().height() > stalled + 5;
      },
      120 * sim::kSecond));
  ASSERT_TRUE(w.h.run_until(
      [&] { return w.parent_checkpoint_epoch() > stalled; },
      120 * sim::kSecond));
  EXPECT_TRUE(w.h.root().node(0).sca_state().slash_records.empty());
}

// -------------------------------- BFT crash recovery through BlockSync

/// Blocks the peers may commit after the restart before the restarted
/// validator must have reached their head.
constexpr chain::Epoch kCatchUpBlocks = 5;

struct BftCrash {
  core::ConsensusType engine;
  storage::DiskFault::Kind fault;
};

class BftRecovery : public ::testing::TestWithParam<BftCrash> {};

TEST_P(BftRecovery, RestartedValidatorReachesPeersHead) {
  const BftCrash param = GetParam();
  runtime::Hierarchy h(durable_cfg(211));
  core::SubnetParams params = h.config().root_params;
  params.consensus = param.engine;
  consensus::EngineConfig fast;
  fast.block_time = 100 * sim::kMillisecond;
  auto spawned = h.spawn_subnet(h.root(), "bft", params, 10,
                                TokenAmount::whole(6), fast);
  ASSERT_TRUE(spawned.ok()) << spawned.error().to_string();
  runtime::Subnet& s = *spawned.value();
  h.run_for(2 * sim::kSecond);

  // A non-proposer: not the next height's proposer, and not slot 0, the
  // reference replica.
  const std::size_t n = s.size();
  const auto head = static_cast<std::size_t>(s.node(0).chain().height());
  std::size_t victim = (head + 1 + n / 2) % n;
  if (victim == 0) victim = 1;
  storage::DiskFault fault;
  fault.kind = param.fault;
  fault.seed = 5;
  ASSERT_TRUE(h.crash_node(s, victim, fault).ok());
  h.run_for(sim::kSecond);
  ASSERT_TRUE(h.restart_node(s, victim).ok());

  const chain::Epoch at_restart = s.node(0).chain().height();
  ASSERT_LT(s.node(victim).chain().height(), at_restart);  // it is behind
  // Measured in blocks, not time: a height whose proposer is the victim
  // stalls its peers too until the round times out.
  ASSERT_TRUE(h.run_until(
      [&] {
        return s.node(victim).chain().height() >=
               s.node(0).chain().height();
      },
      30 * sim::kSecond, 10 * sim::kMillisecond));
  EXPECT_LE(s.node(0).chain().height() - at_restart, kCatchUpBlocks);

  // Caught up onto the same chain, and it keeps up afterwards.
  h.run_for(sim::kSecond);
  const chain::Epoch common =
      std::min(s.node(0).chain().height(), s.node(victim).chain().height());
  EXPECT_GE(common, s.node(0).chain().height() - 1);
  EXPECT_EQ(s.node(victim).chain().block_at(common)->cid(),
            s.node(0).chain().block_at(common)->cid());
}

INSTANTIATE_TEST_SUITE_P(
    AllBft, BftRecovery,
    ::testing::Values(
        BftCrash{core::ConsensusType::kTendermint,
                 storage::DiskFault::Kind::kKeepAll},
        BftCrash{core::ConsensusType::kTendermint,
                 storage::DiskFault::Kind::kLoseSuffix},
        BftCrash{core::ConsensusType::kRoundRobinBft,
                 storage::DiskFault::Kind::kKeepAll},
        BftCrash{core::ConsensusType::kRoundRobinBft,
                 storage::DiskFault::Kind::kLoseSuffix}),
    [](const ::testing::TestParamInfo<BftCrash>& info) {
      std::string name(core::consensus_name(info.param.engine));
      std::erase(name, '-');
      return name + (info.param.fault == storage::DiskFault::Kind::kKeepAll
                         ? "KeepAll"
                         : "LoseSuffix");
    });

}  // namespace
}  // namespace hc::testing

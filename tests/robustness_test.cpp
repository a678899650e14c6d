// Adversarial robustness: malformed and forged network input, recursion
// bombs, and resource-exhaustion guards. Every handler that touches
// network-supplied bytes must survive arbitrary garbage.
#include <gtest/gtest.h>

#include "actors/methods.hpp"
#include "consensus/wire.hpp"
#include "runtime/hierarchy.hpp"
#include "sim/rng.hpp"

namespace hc::runtime {
namespace {

core::SubnetParams subnet_params() {
  core::SubnetParams p;
  p.name = "rob";
  p.consensus = core::ConsensusType::kPoaRoundRobin;
  p.min_validator_stake = TokenAmount::whole(5);
  p.min_collateral = TokenAmount::whole(10);
  p.checkpoint_period = 5;
  p.checkpoint_policy =
      core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
  return p;
}

HierarchyConfig fast_config() {
  HierarchyConfig cfg;
  cfg.seed = 1234;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  cfg.root_params = subnet_params();
  cfg.root_validators = 3;
  cfg.root_engine.block_time = 100 * sim::kMillisecond;
  return cfg;
}

struct RobustnessFixture : ::testing::Test {
  Hierarchy h{fast_config()};
  net::NodeId attacker = 0;

  void SetUp() override { attacker = h.network().add_node(); }

  /// Spray `count` random byte blobs into `topic`.
  void spray_garbage(const std::string& topic, int count,
                     std::uint64_t seed) {
    sim::Rng rng(seed);
    for (int i = 0; i < count; ++i) {
      Bytes junk(rng.uniform(512) + 1);
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(256));
      h.network().publish(attacker, topic, std::move(junk));
      h.run_for(10 * sim::kMillisecond);
    }
  }
};

TEST_F(RobustnessFixture, GarbageOnEveryTopicDoesNotHaltTheChain) {
  const auto& root_id = h.root().id;
  const chain::Epoch before = h.root().node(0).chain().height();
  for (const std::string& topic :
       {Topics::msgs(root_id), Topics::consensus(root_id),
        Topics::signatures(root_id), Topics::resolve(root_id)}) {
    spray_garbage(topic, 30, std::hash<std::string>{}(topic));
  }
  h.run_for(3 * sim::kSecond);
  EXPECT_GT(h.root().node(0).chain().height(), before + 10);
}

TEST_F(RobustnessFixture, ForgedConsensusBlocksRejected) {
  // A non-validator signs well-formed consensus block messages: the
  // engines must reject them on the authority check.
  const auto forger = crypto::KeyPair::from_label("forger");
  const chain::Epoch target = h.root().node(0).chain().height() + 1;

  chain::Block fake;
  fake.header.miner = Address::key(forger.public_key().to_bytes());
  fake.header.height = target;
  fake.header.parent = h.root().node(0).chain().head().cid();
  fake.header.state_root = Cid::of(CidCodec::kStateRoot, to_bytes("fake"));
  fake.header.msgs_root = fake.compute_msgs_root();

  auto msg = consensus::WireMsg::make(consensus::WireKind::kBlock, target, 0,
                                      fake.cid(), encode(fake), forger);
  h.network().publish(attacker, Topics::consensus(h.root().id), encode(msg));
  h.run_for(2 * sim::kSecond);
  // The forged block never entered any chain.
  const auto* committed = h.root().node(0).chain().block_at(target);
  if (committed != nullptr) {
    EXPECT_NE(committed->cid(), fake.cid());
  }
}

TEST_F(RobustnessFixture, ForgedCheckpointSignatureSharesIgnored) {
  consensus::EngineConfig fast;
  fast.block_time = 100 * sim::kMillisecond;
  auto c = h.spawn_subnet(h.root(), "rob-child", subnet_params(), 3,
                          TokenAmount::whole(5), fast);
  ASSERT_TRUE(c.ok());
  Subnet* child = c.value();

  // Outsider floods forged signature shares for future epochs, in the
  // envelope the sigs topic carries, so they reach the duty's checks.
  const auto outsider = crypto::KeyPair::from_label("sig-forger");
  for (chain::Epoch epoch = 5; epoch <= 50; epoch += 5) {
    SigShare share;
    share.epoch = epoch;
    share.checkpoint_cid = Cid::of(CidCodec::kCheckpoint, to_bytes("forged"));
    share.signer = outsider.public_key();
    share.signature = outsider.sign(to_bytes("junk"));
    h.network().publish(attacker, Topics::signatures(child->id),
                        encode(SigGossip{share, std::nullopt}));
  }
  // Checkpoints still flow normally.
  ASSERT_TRUE(h.run_until(
      [&] {
        const auto sca = h.root().node(0).sca_state();
        auto it = sca.subnets.find(child->sa);
        return it != sca.subnets.end() && !it->second.checkpoints.empty();
      },
      120 * sim::kSecond));
}

TEST_F(RobustnessFixture, ForgedResolutionContentRejectedByHashCheck) {
  consensus::EngineConfig fast;
  fast.block_time = 100 * sim::kMillisecond;
  auto c = h.spawn_subnet(h.root(), "rob-child2", subnet_params(), 3,
                          TokenAmount::whole(5), fast);
  ASSERT_TRUE(c.ok());
  Subnet* child = c.value();
  auto alice = h.make_user("rob-alice", TokenAmount::whole(500));
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(h.send_cross(h.root(), alice.value(), child->id,
                           alice.value().addr, TokenAmount::whole(20))
                  .ok());
  ASSERT_TRUE(h.run_until(
      [&] { return !child->node(0).balance(alice.value().addr).is_zero(); },
      60 * sim::kSecond));

  // Attacker pre-floods the root's resolve topic with forged "resolve"
  // payloads for random CIDs — and even tries to front-run real CIDs with
  // wrong bytes; content addressing must reject them all.
  User sink{crypto::KeyPair::from_label("rob-sink"),
            Address::key(
                crypto::KeyPair::from_label("rob-sink").public_key()
                    .to_bytes())};
  auto r = h.send_cross(*child, alice.value(), core::SubnetId::root(),
                        sink.addr, TokenAmount::whole(6));
  ASSERT_TRUE(r.ok());

  for (int i = 0; i < 20; ++i) {
    ResolutionMsg forged;
    forged.kind = ResolutionKind::kResolve;
    forged.cid = Cid::of(CidCodec::kCrossMsgs,
                         to_bytes("guess-" + std::to_string(i)));
    forged.content = to_bytes("malicious-" + std::to_string(i));
    h.network().publish(attacker, Topics::resolve(core::SubnetId::root()),
                        encode(forged));
  }
  // The legit transfer still settles with the correct amount.
  ASSERT_TRUE(h.run_until(
      [&] {
        return h.root().node(0).balance(sink.addr) == TokenAmount::whole(6);
      },
      120 * sim::kSecond));
}

TEST_F(RobustnessFixture, MempoolSprayFromUnfundedAccountsIsHarmless) {
  // Thousands of validly-signed messages from accounts with no balance:
  // they enter mempools but never execute, and the chain keeps moving.
  sim::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto key = crypto::KeyPair::from_label("spam-" + std::to_string(i));
    chain::Message m;
    m.from = Address::key(key.public_key().to_bytes());
    m.to = Address::id(1);
    m.nonce = 0;
    m.gas_limit = 1 << 20;
    m.gas_price = TokenAmount::atto(1);
    h.network().publish(attacker, Topics::msgs(h.root().id),
                        encode(chain::SignedMessage::sign(std::move(m), key)));
  }
  const chain::Epoch before = h.root().node(0).chain().height();
  h.run_for(3 * sim::kSecond);
  EXPECT_GT(h.root().node(0).chain().height(), before + 10);
  // None of the spam executed (senders do not exist).
  EXPECT_FALSE(h.root().node(0).state().has(Address::id(1)) &&
               !h.root().node(0).balance(Address::id(1)).is_zero());
}

}  // namespace
}  // namespace hc::runtime

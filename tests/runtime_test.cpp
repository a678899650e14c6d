// Node-level runtime tests: block assembly (cross-msg gathering), implicit-
// message validation against Byzantine proposers, checkpoint duty wiring,
// and node statistics.
#include <gtest/gtest.h>

#include "actors/methods.hpp"
#include "memo_check.hpp"
#include "obs/profile.hpp"
#include "runtime/hierarchy.hpp"

namespace hc::runtime {
namespace {

core::SubnetParams subnet_params(std::uint32_t period = 5) {
  core::SubnetParams p;
  p.name = "rt";
  p.consensus = core::ConsensusType::kPoaRoundRobin;
  p.min_validator_stake = TokenAmount::whole(5);
  p.min_collateral = TokenAmount::whole(10);
  p.checkpoint_period = period;
  p.checkpoint_policy =
      core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
  return p;
}

HierarchyConfig fast_config() {
  HierarchyConfig cfg;
  cfg.seed = 11;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  cfg.root_params = subnet_params();
  cfg.root_validators = 3;
  cfg.root_engine.block_time = 100 * sim::kMillisecond;
  return cfg;
}

consensus::EngineConfig fast_engine() {
  consensus::EngineConfig e;
  e.block_time = 100 * sim::kMillisecond;
  e.timeout_base = 300 * sim::kMillisecond;
  return e;
}

struct RuntimeFixture : ::testing::Test {
  Hierarchy h{fast_config()};
  Subnet* child = nullptr;
  User alice;

  void SetUp() override {
    auto c = h.spawn_subnet(h.root(), "rt-child", subnet_params(), 3,
                            TokenAmount::whole(5), fast_engine());
    ASSERT_TRUE(c.ok()) << c.error().to_string();
    child = c.value();
    auto a = h.make_user("rt-alice", TokenAmount::whole(1000));
    ASSERT_TRUE(a.ok());
    alice = a.value();
  }

  /// Commit a top-down fund on the root WITHOUT letting the child see it
  /// applied yet (stop just after the root commit).
  void fund_child(TokenAmount amount) {
    auto r = h.send_cross(h.root(), alice, child->id, alice.addr, amount);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().ok()) << r.value().error;
  }
};

// ------------------------------------------------------ block assembly

TEST_F(RuntimeFixture, BuildBlockPicksUpCommittedTopDownMsgs) {
  fund_child(TokenAmount::whole(7));
  // Build directly on a child node: its parent view already has the
  // committed msg (call() waited for root inclusion).
  chain::Block block = child->node(0).build_block(Address::id(900), {});
  ASSERT_GE(block.cross_messages.size(), 1u);
  bool found = false;
  for (const auto& m : block.cross_messages) {
    if (m.method != actors::sca_method::kApplyTopDown) continue;
    auto cross = decode<core::CrossMsg>(m.params);
    ASSERT_TRUE(cross.ok());
    EXPECT_EQ(cross.value().msg.value, TokenAmount::whole(7));
    EXPECT_EQ(cross.value().nonce, 0u);
    EXPECT_EQ(m.value, TokenAmount::whole(7));  // mint envelope
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(RuntimeFixture, BuildBlockCutsAtPeriodBoundary) {
  // Next height multiple of 5 ⇒ the block must contain a cut.
  ASSERT_TRUE(h.run_until(
      [&] { return (child->node(0).chain().height() + 1) % 5 == 0; },
      20 * sim::kSecond));
  chain::Block block = child->node(0).build_block(Address::id(900), {});
  bool has_cut = false;
  for (const auto& m : block.cross_messages) {
    if (m.method == actors::sca_method::kCutCheckpoint) has_cut = true;
  }
  EXPECT_TRUE(has_cut);
}

TEST_F(RuntimeFixture, ValidateRejectsForgedTopDown) {
  fund_child(TokenAmount::whole(7));
  chain::Block block = child->node(0).build_block(Address::id(900), {});

  // A Byzantine proposer doubles the minted value.
  for (auto& m : block.cross_messages) {
    if (m.method != actors::sca_method::kApplyTopDown) continue;
    auto cross = decode<core::CrossMsg>(m.params).value();
    cross.msg.value = TokenAmount::whole(700);
    m.params = encode(cross);
    m.value = cross.msg.value;
  }
  // Re-seal the block so only the semantic check can catch it.
  chain::StateTree tree = child->node(0).state().snapshot();
  block.header.msgs_root = block.compute_msgs_root();
  auto status = child->node(1).validate_block(block);
  EXPECT_FALSE(status.ok());
  (void)tree;
}

TEST_F(RuntimeFixture, ValidateRejectsInventedTopDown) {
  // No committed fund at all: a proposer invents a mint from thin air.
  core::CrossMsg forged;
  forged.from_subnet = core::SubnetId::root();
  forged.to_subnet = child->id;
  forged.msg.from = alice.addr;
  forged.msg.to = alice.addr;
  forged.msg.value = TokenAmount::whole(1000);
  forged.nonce = 0;

  chain::Block block = child->node(0).build_block(Address::id(900), {});
  chain::Message m;
  m.from = chain::kSystemAddr;
  m.to = chain::kScaAddr;
  m.method = actors::sca_method::kApplyTopDown;
  m.params = encode(forged);
  m.value = forged.msg.value;
  block.cross_messages.push_back(std::move(m));
  block.header.msgs_root = block.compute_msgs_root();
  EXPECT_FALSE(child->node(1).validate_block(block).ok());
}

TEST_F(RuntimeFixture, ValidateRejectsNonSystemImplicitEnvelope) {
  chain::Block block = child->node(0).build_block(Address::id(900), {});
  chain::Message m;
  m.from = alice.addr;  // users cannot inject implicit msgs
  m.to = chain::kScaAddr;
  m.method = actors::sca_method::kApplyTopDown;
  block.cross_messages.push_back(std::move(m));
  block.header.msgs_root = block.compute_msgs_root();
  EXPECT_FALSE(child->node(1).validate_block(block).ok());
}

TEST_F(RuntimeFixture, ValidateRejectsMisplacedCut) {
  // A cut at a non-boundary height must be rejected.
  const chain::Epoch next = child->node(0).chain().height() + 1;
  if (next % 5 == 0) {
    ASSERT_TRUE(h.run_until(
        [&] { return (child->node(0).chain().height() + 1) % 5 != 0; },
        20 * sim::kSecond));
  }
  chain::Block block = child->node(0).build_block(Address::id(900), {});
  actors::CutParams cut;
  cut.epoch = block.header.height;
  cut.proof = block.header.parent;
  chain::Message m;
  m.from = chain::kSystemAddr;
  m.to = chain::kScaAddr;
  m.method = actors::sca_method::kCutCheckpoint;
  m.params = encode(cut);
  block.cross_messages.insert(block.cross_messages.begin(), std::move(m));
  block.header.msgs_root = block.compute_msgs_root();
  EXPECT_FALSE(child->node(1).validate_block(block).ok());
}

TEST_F(RuntimeFixture, ValidateRejectsTamperedUserMessage) {
  chain::Block block = child->node(0).build_block(Address::id(900), {});
  chain::Message m;
  m.from = alice.addr;
  m.to = alice.addr;
  m.gas_limit = 1 << 20;
  auto sm = chain::SignedMessage::sign(m, alice.key);
  sm.message.value = TokenAmount::whole(5);  // tamper
  block.messages.push_back(sm);
  block.header.msgs_root = block.compute_msgs_root();
  EXPECT_FALSE(child->node(1).validate_block(block).ok());
}

// -------------------------------------------------------- checkpoint duty

TEST_F(RuntimeFixture, CheckpointStatsProgress) {
  ASSERT_TRUE(h.run_until(
      [&] { return child->node(0).checkpoint_duty().checkpoints_cut() >= 2; },
      60 * sim::kSecond));
  // Exactly one designated submitter per epoch: total submissions across
  // nodes ≈ checkpoints accepted by the SA.
  std::uint64_t submitted = 0;
  for (std::size_t i = 0; i < child->size(); ++i) {
    submitted += child->node(i).checkpoint_duty().checkpoints_submitted();
  }
  const auto sa = h.root().node(0).sa_state(child->sa);
  ASSERT_TRUE(sa.has_value());
  EXPECT_GE(submitted, 1u);
  // No double-submission storm: submissions can exceed accepted by at most
  // the in-flight one.
  const auto sca = h.root().node(0).sca_state();
  EXPECT_LE(submitted,
            sca.subnets.at(child->sa).checkpoints.size() + 1);
}

TEST_F(RuntimeFixture, SubmitMessageRejectsGarbageAndDuplicates) {
  chain::Message m;
  m.from = alice.addr;
  m.to = alice.addr;
  m.nonce = child->node(0).account_nonce(alice.addr) + 7;  // any
  m.gas_limit = 1 << 20;
  auto sm = chain::SignedMessage::sign(m, alice.key);
  ASSERT_TRUE(child->node(0).submit_message(sm).ok());
  EXPECT_FALSE(child->node(0).submit_message(sm).ok());  // duplicate
  sm.message.value = TokenAmount::whole(1);               // broken signature
  EXPECT_FALSE(child->node(0).submit_message(sm).ok());
}

TEST_F(RuntimeFixture, FailedExecutionsStillYieldReceipts) {
  fund_child(TokenAmount::whole(5));
  ASSERT_TRUE(h.run_until(
      [&] { return !child->node(0).balance(alice.addr).is_zero(); },
      30 * sim::kSecond));
  // A call that executes but fails (unknown SCA method): the receipt with
  // the failure must be retrievable through the usual path.
  auto r = h.call(*child, alice, chain::kScaAddr, /*method=*/9999, {},
                  TokenAmount());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_FALSE(r.value().ok());
  EXPECT_EQ(r.value().exit, chain::ExitCode::kActorError);
}

TEST_F(RuntimeFixture, NonValidatorNodeFollowsChain) {
  // A follower (non-validator) node attached to the subnet syncs blocks
  // committed by the validators.
  NodeConfig nc;
  nc.subnet = child->id;
  nc.params = subnet_params();
  nc.engine = fast_engine();
  nc.sa_in_parent = child->sa;
  consensus::ValidatorSet validators;  // observer: not in the set
  {
    std::vector<consensus::Validator> members;
    for (const auto& k : child->validator_keys) {
      members.push_back(consensus::Validator{k.public_key(), 1});
    }
    validators = consensus::ValidatorSet(members);
  }
  chain::StateTree genesis;  // same genesis as the child
  chain::ActorEntry init;
  init.code = chain::kCodeInit;
  init.nonce = 100;
  genesis.set(chain::kInitAddr, init);
  chain::ActorEntry sca;
  sca.code = chain::kCodeSca;
  sca.state = actors::make_sca_ctor_state(child->id, 5);
  genesis.set(chain::kScaAddr, sca);

  SubnetNode observer(
      h.scheduler(), h.network(), h.registry(), nc,
      crypto::KeyPair::from_label("observer"), validators,
      std::make_shared<const chain::StateTree>(std::move(genesis)));
  observer.attach_parent(&h.root().node(0));
  observer.start();
  // PoA gossip reaches the observer; it validates and follows.
  ASSERT_TRUE(h.run_until(
      [&] { return observer.chain().height() >= 3; }, 30 * sim::kSecond));
  EXPECT_EQ(observer.chain().block_at(2)->cid(),
            child->node(0).chain().block_at(2)->cid());
  observer.stop();
}

// ------------------------------------------------------------ execute once
// Every replica executes each block once (DESIGN.md §12 "Execute once"):
// build_block / validate_block keep the flushed post-state and commit_block
// appends it; only a commit with nothing kept runs the execution itself.

/// Profiled executions nested directly inside a commit: commits that found
/// no kept execution and ran the block themselves.
std::uint64_t commit_executions(const std::vector<obs::ProfileNode>& nodes,
                                bool in_commit = false) {
  std::uint64_t total = 0;
  for (const obs::ProfileNode& n : nodes) {
    if (in_commit && n.name == "chain/execute") total += n.count;
    total += commit_executions(n.children, n.name == "chain/commit");
  }
  return total;
}

/// A root (PoA) plus a 4-validator child on `engine` (booted, not yet
/// run), on two worker lanes so the child reads the root's shared head
/// view while root commits replace it.
struct ExecuteOnceWorld {
  Hierarchy h;
  Subnet* child = nullptr;
  User alice;

  explicit ExecuteOnceWorld(core::ConsensusType engine) : h(config()) {
    core::SubnetParams params = subnet_params();
    params.consensus = engine;
    auto c = h.spawn_subnet(h.root(), "once", params, 4,
                            TokenAmount::whole(5), fast_engine());
    EXPECT_TRUE(c.ok()) << c.error().to_string();
    child = c.value();
  }

  static HierarchyConfig config() {
    HierarchyConfig cfg = fast_config();
    cfg.threads = 2;
    return cfg;
  }

  /// Top-down funding plus a few user transfers on the child.
  void drive_traffic() {
    auto a = h.make_user("once-alice", TokenAmount::whole(1000));
    ASSERT_TRUE(a.ok());
    alice = a.value();
    auto fund = h.send_cross(h.root(), alice, child->id, alice.addr,
                             TokenAmount::whole(50));
    ASSERT_TRUE(fund.ok());
    ASSERT_TRUE(fund.value().ok()) << fund.value().error;
    ASSERT_TRUE(h.run_until(
        [&] { return !child->node(0).balance(alice.addr).is_zero(); },
        60 * sim::kSecond));
    for (int i = 0; i < 4; ++i) {
      auto r = h.call(*child, alice, alice.addr, 0, {}, TokenAmount::whole(1));
      ASSERT_TRUE(r.ok()) << r.error().to_string();
    }
    h.run_for(sim::kSecond);
  }

  /// Executions minus commits per replica must stay within `in_flight`:
  /// the BFT engines validate a proposal one step before committing it, so
  /// a replica may hold one executed, not yet committed block.
  void expect_one_execution_per_commit(std::uint64_t in_flight) {
    for (const auto& subnet : h.subnets()) {
      const std::uint64_t slack = subnet.get() == child ? in_flight : 0;
      for (std::size_t i = 0; i < subnet->size(); ++i) {
        const NodeStats s = subnet->node(i).stats();
        EXPECT_GT(s.blocks_committed, 0u);
        EXPECT_GE(s.block_executions, s.blocks_committed)
            << subnet->id.to_string() << " node " << i;
        EXPECT_LE(s.block_executions, s.blocks_committed + slack)
            << subnet->id.to_string() << " node " << i;
      }
    }
  }
};

TEST(ExecuteOnce, PoaReplicasExecuteEachBlockOnce) {
  ExecuteOnceWorld w(core::ConsensusType::kPoaRoundRobin);
  w.drive_traffic();
  w.expect_one_execution_per_commit(0);
}

TEST(ExecuteOnce, LotteryReplicasExecuteEachBlockOnce) {
  // The lottery stamps its rank ticket inside build_block, so the sealed
  // CID the proposer commits is the one it kept.
  ExecuteOnceWorld w(core::ConsensusType::kPowerLottery);
  w.drive_traffic();
  w.expect_one_execution_per_commit(0);
}

TEST(ExecuteOnce, TendermintReplicasExecuteEachBlockOnce) {
  // The proposer validates its own proposal at prevote: the kept build
  // result serves both that validation and the commit.
  ExecuteOnceWorld w(core::ConsensusType::kTendermint);
  w.drive_traffic();
  w.expect_one_execution_per_commit(1);
}

TEST(ExecuteOnce, RrBftReplicasExecuteEachBlockOnce) {
  ExecuteOnceWorld w(core::ConsensusType::kRoundRobinBft);
  w.drive_traffic();
  w.expect_one_execution_per_commit(1);
}

TEST(ExecuteOnce, RrBftCatchUpCommitsWhatItValidated) {
  // A volatile crash + restart rebuilds validator 3 from genesis; it
  // catches up through certificate-carrying block relays
  // (on_committed_block), whose validation keeps the execution its commit
  // then appends — no caught-up block is executed inside a commit.
  ExecuteOnceWorld w(core::ConsensusType::kRoundRobinBft);
  w.drive_traffic();
  const chain::Epoch pre_crash = w.child->node(0).chain().height();
  ASSERT_TRUE(w.h.crash_node(*w.child, 3).ok());
  w.h.run_for(sim::kSecond);
  ASSERT_TRUE(w.h.restart_node(*w.child, 3).ok());
  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.set_enabled(true);
  profiler.reset();
  ASSERT_TRUE(w.h.run_until(
      [&] { return w.child->node(3).chain().height() >= pre_crash; },
      60 * sim::kSecond));
  EXPECT_EQ(commit_executions(profiler.report().roots), 0u);
  EXPECT_EQ(w.child->node(3).chain().block_at(pre_crash)->cid(),
            w.child->node(0).chain().block_at(pre_crash)->cid());
}

TEST(ExecuteOnce, QuorumCertificateCommitWithoutValidateExecutesOnce) {
  // An rrBFT observer never ACKs, so it never validates a proposal: it
  // commits straight from the ACK quorum (maybe_commit), with nothing kept.
  // That commit runs the one execution path and must reproduce what the
  // validators committed and what verify-then-apply replay yields.
  ExecuteOnceWorld w(core::ConsensusType::kRoundRobinBft);
  Subnet& child = *w.child;
  NodeConfig nc;
  nc.subnet = child.id;
  nc.params = subnet_params();
  nc.params.consensus = core::ConsensusType::kRoundRobinBft;
  nc.engine = fast_engine();
  nc.sa_in_parent = child.sa;
  std::vector<consensus::Validator> members;
  for (const auto& k : child.validator_keys) {
    members.push_back(consensus::Validator{k.public_key(), 1});
  }
  chain::StateTree genesis;  // same genesis as the child
  chain::ActorEntry init;
  init.code = chain::kCodeInit;
  init.nonce = 100;
  genesis.set(chain::kInitAddr, init);
  chain::ActorEntry sca;
  sca.code = chain::kCodeSca;
  sca.state = actors::make_sca_ctor_state(child.id, 5);
  genesis.set(chain::kScaAddr, sca);
  (void)genesis.flush();
  SubnetNode observer(
      w.h.scheduler(), w.h.network(), w.h.registry(), nc,
      crypto::KeyPair::from_label("once-observer"),
      consensus::ValidatorSet(members),
      std::make_shared<const chain::StateTree>(std::move(genesis)));
  observer.attach_parent(&w.h.root().node(0));
  observer.start();
  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.set_enabled(true);
  profiler.reset();
  w.drive_traffic();
  ASSERT_TRUE(w.h.run_until(
      [&] { return observer.chain().height() >= 5; }, 30 * sim::kSecond));
  observer.stop();

  const NodeStats s = observer.stats();
  EXPECT_EQ(s.block_executions, s.blocks_committed);
  // Only the observer commits without a kept execution.
  EXPECT_GT(commit_executions(profiler.report().roots), 0u);
  EXPECT_LE(commit_executions(profiler.report().roots), s.blocks_committed);
  const chain::Epoch head = observer.chain().height();
  const SubnetNode& validator = child.node(0);
  ASSERT_GE(validator.chain().height(), head);
  EXPECT_EQ(observer.chain().head().cid(),
            validator.chain().block_at(head)->cid());
  bool saw_user_msg = false;
  for (chain::Epoch height = 1; height <= head; ++height) {
    const auto* mine = observer.receipts_at(height);
    const auto* theirs = validator.receipts_at(height);
    ASSERT_NE(mine, nullptr);
    ASSERT_NE(theirs, nullptr);
    EXPECT_EQ(*mine, *theirs) << "height " << height;
    saw_user_msg |= !observer.chain().block_at(height)->messages.empty();
  }
  EXPECT_TRUE(saw_user_msg);
  auto replayed = observer.state_at(head);
  ASSERT_TRUE(replayed.ok()) << replayed.error().to_string();
  EXPECT_EQ(replayed.value().flush(), observer.state().flush());
}

TEST(ExecuteOnce, ParentViewSharesTheHeadAndItsDecodedSca) {
  // The published view IS the committed head tree (no copy), and its SCA
  // state is the head SCA blob's memo, which every child reader shares.
  ExecuteOnceWorld w(core::ConsensusType::kPoaRoundRobin);
  w.h.run_for(sim::kSecond);
  SubnetNode& parent = w.h.root().node(0);
  ASSERT_GT(parent.viewer_count(), 0u);
  const auto view = parent.sca_state_view();
  const chain::StateBlob blob =
      parent.chain().state().get(chain::kScaAddr)->state;
  EXPECT_EQ(view, blob.memo<actors::ScaState>());  // shared, not decoded
  EXPECT_EQ(parent.sca_state_view(), view);
  EXPECT_EQ(encode(*view), encode(parent.sca_state()));
  // The view is the head, so the footprint counts that tree once.
  EXPECT_EQ(parent.mem_bytes(),
            parent.chain().mem_bytes() + parent.content_store().total_bytes());

  const chain::Epoch height = parent.chain().height();
  ASSERT_TRUE(w.h.run_until(
      [&] { return parent.chain().height() > height; }, 5 * sim::kSecond));
  const auto next = parent.sca_state_view();
  const chain::StateBlob& next_blob =
      parent.chain().state().get(chain::kScaAddr)->state;
  EXPECT_EQ(next, next_blob.memo<actors::ScaState>());
  // A head that rewrote the SCA carries a new memo; one that did not
  // shares the previous blob and with it the same decoded state.
  EXPECT_EQ(next == view, next_blob.shares(blob));
  EXPECT_EQ(encode(*next), encode(parent.sca_state()));
}

TEST(StateMemo, HeadMemosMatchTheirBytesAcrossLanes) {
  // Two worker lanes: the child replicas read the root's published head
  // and share its SCA memo while the root lane keeps committing new heads.
  ExecuteOnceWorld w(core::ConsensusType::kPoaRoundRobin);
  w.drive_traffic();
  for (Subnet* subnet : {&w.h.root(), w.child}) {
    for (std::size_t i = 0; i < subnet->size(); ++i) {
      const SubnetNode& node = subnet->node(i);
      // Every replica's SCA has written, so at least that blob has a memo.
      EXPECT_GT(testing::check_memos(node.chain().state()), 0u);
      EXPECT_EQ(node.sca_state(),
                decode<actors::ScaState>(
                    node.chain().state().get(chain::kScaAddr)->state.view())
                    .value());
    }
  }
}

/// Root replicas paused at one head, for direct build/validate/commit
/// calls (the simulation does not run between them).
struct PausedRoot {
  Hierarchy h{fast_config()};
  User alice;
  bool ready = false;

  PausedRoot() {
    auto a = h.make_user("paused-alice", TokenAmount::whole(100));
    if (!a.ok()) return;
    alice = a.value();
    ready = h.run_until(
        [&] {
          const Cid head = h.root().node(0).head_cid();
          return h.root().node(1).head_cid() == head &&
                 h.root().node(2).head_cid() == head;
        },
        10 * sim::kSecond);
  }
};

TEST(ExecuteOnce, CommitTakesTheCandidateWhoseCidMatches) {
  PausedRoot w;
  ASSERT_TRUE(w.ready);
  const User& alice = w.alice;
  SubnetNode& a = w.h.root().node(0);
  SubnetNode& b = w.h.root().node(1);
  SubnetNode& v = w.h.root().node(2);
  // Two candidates at one height: only `a` holds alice's transfer (the
  // gossip copy stays undelivered while the simulation is paused).
  chain::Message m;
  m.from = alice.addr;
  m.to = alice.addr;
  m.nonce = a.account_nonce(alice.addr);
  m.gas_limit = 1 << 20;
  ASSERT_TRUE(a.submit_message(chain::SignedMessage::sign(m, alice.key)).ok());
  const chain::Block with_tx = a.build_block(Address::id(900), {});
  const chain::Block empty = b.build_block(Address::id(901), {});
  ASSERT_EQ(with_tx.messages.size(), 1u);
  ASSERT_TRUE(empty.messages.empty());
  ASSERT_NE(with_tx.header.state_root, empty.header.state_root);

  const std::uint64_t before = v.stats().block_executions;
  ASSERT_TRUE(v.validate_block(with_tx).ok());
  ASSERT_TRUE(v.validate_block(empty).ok());
  ASSERT_TRUE(v.validate_block(with_tx).ok());  // kept: no re-execution
  EXPECT_EQ(v.stats().block_executions, before + 2);

  v.commit_block(empty, {});
  EXPECT_EQ(v.stats().block_executions, before + 2);
  EXPECT_EQ(v.chain().head().cid(), empty.cid());
  EXPECT_EQ(v.state().flush(), empty.header.state_root);
  EXPECT_EQ(v.receipts_at(empty.header.height)->size(),
            empty.cross_messages.size());
}

TEST(ExecuteOnce, DropsKeptExecutionsWhenTheHeadMoves) {
  PausedRoot w;
  ASSERT_TRUE(w.ready);
  SubnetNode& a = w.h.root().node(0);
  SubnetNode& b = w.h.root().node(1);
  SubnetNode& v = w.h.root().node(2);
  const chain::Block stale = a.build_block(Address::id(900), {});
  const chain::Block winner = b.build_block(Address::id(901), {});
  ASSERT_NE(stale.cid(), winner.cid());
  ASSERT_TRUE(v.validate_block(stale).ok());
  ASSERT_TRUE(v.validate_block(winner).ok());
  v.commit_block(winner, {});
  const std::uint64_t before = v.stats().block_executions;

  // The kept execution of `stale` extended the old head: it is gone, so a
  // (misdirected) commit of it executes afresh and the store refuses it.
  EXPECT_FALSE(v.validate_block(stale).ok());
  v.commit_block(stale, {});
  EXPECT_EQ(v.stats().block_executions, before + 1);
  EXPECT_EQ(v.chain().head().cid(), winner.cid());
}

TEST(ExecuteOnce, WalReplayReproducesPreCrashHead) {
  HierarchyConfig cfg = fast_config();
  cfg.durability.enabled = true;
  Hierarchy h(cfg);
  ASSERT_TRUE(h.run_until(
      [&] { return h.root().node(2).chain().height() >= 8; },
      30 * sim::kSecond));
  const Cid pre_head = h.root().node(2).chain().head().cid();
  const Cid pre_root = h.root().node(2).state().flush();
  const std::uint64_t pre_executions =
      h.root().node(2).stats().block_executions;
  storage::DiskFault intact;
  intact.kind = storage::DiskFault::Kind::kKeepAll;
  ASSERT_TRUE(h.crash_node(h.root(), 2, intact).ok());
  ASSERT_TRUE(h.restart_node(h.root(), 2).ok());

  const SubnetNode& node = h.root().node(2);
  EXPECT_EQ(node.chain().head().cid(), pre_head);
  EXPECT_EQ(node.state().flush(), pre_root);
  // Replay runs the same execution path, once per recovered block.
  EXPECT_EQ(node.stats().block_executions,
            pre_executions +
                static_cast<std::uint64_t>(node.recovered_height()));
}

}  // namespace
}  // namespace hc::runtime

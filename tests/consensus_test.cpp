// Tests for the consensus engines: PoA round-robin, power lottery and the
// BFT engine under its Tendermint and rrBFT policies, all driven over the
// simulated gossip network with a minimal (empty-block) BlockSource.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "chain/chainstore.hpp"
#include "consensus/block_sync.hpp"
#include "consensus/engine.hpp"
#include "consensus/lottery.hpp"
#include "consensus/poa.hpp"
#include "crypto/sigcache.hpp"

namespace hc::consensus {
namespace {

/// Empty-block chain source: just grows a validated chain.
class EmptySource final : public BlockSource {
 public:
  EmptySource()
      : store_(chain::ChainStore::make_genesis(chain::StateTree{}, 0),
               chain::StateTree{}) {}

  chain::Block build_block(const Address& miner, Bytes ticket) override {
    chain::Block b;
    b.header.miner = miner;
    b.header.height = store_.height() + 1;
    b.header.parent = store_.head().cid();
    b.header.ticket = std::move(ticket);
    b.header.state_root = store_.state().flush();
    b.header.msgs_root = b.compute_msgs_root();
    return b;
  }

  Status validate_block(const chain::Block& block) override {
    if (block.header.parent != store_.head().cid()) {
      return Error(Errc::kStateConflict, "does not extend head");
    }
    if (block.header.state_root != store_.state().flush()) {
      return Error(Errc::kInvalidArgument, "bad state root");
    }
    return ok_status();
  }

  void commit_block(chain::Block block, Bytes proof) override {
    proofs_.push_back(std::move(proof));
    auto ok = store_.append(std::move(block), store_.state().snapshot());
    ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  }

  [[nodiscard]] chain::Epoch head_height() const override {
    return store_.height();
  }
  [[nodiscard]] Cid head_cid() const override { return store_.head().cid(); }

  [[nodiscard]] std::optional<chain::Block> block_at(
      chain::Epoch height) const override {
    const auto* b = store_.block_at(height);
    if (b == nullptr) return std::nullopt;
    return *b;
  }
  [[nodiscard]] Bytes proof_at(chain::Epoch height) const override {
    if (height < 1) return {};
    const auto idx = static_cast<std::size_t>(height - 1);  // genesis has none
    return idx < proofs_.size() ? proofs_[idx] : Bytes{};
  }

  chain::ChainStore store_;
  std::vector<Bytes> proofs_;
};

/// In-memory VoteStore double. persist() records the latest state;
/// reboot() makes it visible through recovered(), the way a real restart
/// surfaces the last fsynced WAL vote record.
class MemVoteStore final : public VoteStore {
 public:
  void persist(BytesView state) override {
    saved_ = Bytes(state.begin(), state.end());
    history_.push_back(saved_);
    ++persists_;
  }
  [[nodiscard]] std::optional<Bytes> recovered() const override {
    return recovered_;
  }
  void reboot() { recovered_ = saved_; }

  Bytes saved_;
  std::vector<Bytes> history_;  ///< every persisted record, oldest first
  std::optional<Bytes> recovered_;
  int persists_ = 0;
};

/// A cluster of validators running one engine type.
struct Cluster {
  sim::Scheduler sched;
  net::Network net{sched, sim::LatencyModel(5 * sim::kMillisecond,
                                            2 * sim::kMillisecond),
                   /*seed=*/7};
  std::vector<crypto::KeyPair> keys;
  ValidatorSet validators;
  std::vector<std::unique_ptr<EmptySource>> sources;
  std::vector<std::unique_ptr<MemVoteStore>> votes;
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<net::NodeId> ids;
  core::ConsensusType type_;
  bool durable_ = false;

  Cluster(core::ConsensusType type, int n,
          std::vector<std::uint64_t> powers = {}, bool durable = false)
      : type_(type), durable_(durable) {
    std::vector<Validator> members;
    for (int i = 0; i < n; ++i) {
      keys.push_back(
          crypto::KeyPair::from_label("val-" + std::to_string(i)));
      members.push_back(Validator{
          keys.back().public_key(),
          powers.empty() ? 1 : powers[static_cast<std::size_t>(i)]});
    }
    validators = ValidatorSet(members);
    for (int i = 0; i < n; ++i) add_engine();
  }

  /// Add a node running the engine under keys[i], where i is the index
  /// returned.
  std::size_t add_engine() {
    const std::size_t self = engines.size();
    ids.push_back(net.add_node());
    sources.push_back(std::make_unique<EmptySource>());
    votes.push_back(std::make_unique<MemVoteStore>());
    engines.push_back(make_engine(type_, make_context(self), engine_cfg()));
    net.subscribe(ids.back(), "subnet/test/consensus");
    net.set_topic_handler(ids.back(),
                          [this, self](net::NodeId from, const std::string&,
                                       const net::Envelope& payload) {
                            if (engines[self]) {
                              engines[self]->on_message(from, payload);
                            }
                          });
    return self;
  }

  /// Add a node running the engine under `key`, which is not in the
  /// validator set: a follower.
  std::size_t add_node(crypto::KeyPair key) {
    keys.push_back(std::move(key));
    return add_engine();
  }

  [[nodiscard]] static EngineConfig engine_cfg() {
    EngineConfig cfg;
    cfg.block_time = 100 * sim::kMillisecond;
    cfg.timeout_base = 200 * sim::kMillisecond;
    return cfg;
  }

  [[nodiscard]] EngineContext make_context(std::size_t i) {
    EngineContext ctx;
    ctx.scheduler = &sched;
    ctx.network = &net;
    ctx.node = ids[i];
    ctx.topic = "subnet/test/consensus";
    ctx.key = keys[i];
    ctx.validators = validators;
    ctx.source = sources[i].get();
    if (durable_) ctx.votes = votes[i].get();
    ctx.rng_seed = static_cast<std::uint64_t>(i);
    return ctx;
  }

  /// Crash validator i: silence its endpoint and destroy the engine —
  /// every in-memory round, lock and timer dies with it.
  void crash(std::size_t i) {
    engines[i]->stop();
    engines[i].reset();
    net.set_node_down(ids[i], true);
  }

  /// Restart validator i from its vote store: a fresh engine whose
  /// recovered() yields what the pre-crash self last persisted.
  void restart(std::size_t i) {
    votes[i]->reboot();
    net.set_node_down(ids[i], false);
    engines[i] = make_engine(type_, make_context(i), engine_cfg());
    engines[i]->start();
  }

  void start_all() {
    for (auto& e : engines) e->start();
  }

  [[nodiscard]] chain::Epoch min_height() const {
    chain::Epoch h = sources[0]->head_height();
    for (const auto& s : sources) h = std::min(h, s->head_height());
    return h;
  }

  /// All nodes at height >= h agree on the block CIDs up to h.
  [[nodiscard]] bool converged_to(chain::Epoch h) const {
    for (chain::Epoch e = 1; e <= h; ++e) {
      const auto* first = sources[0]->store_.block_at(e);
      if (first == nullptr) return false;
      for (const auto& s : sources) {
        const auto* b = s->store_.block_at(e);
        if (b == nullptr || b->cid() != first->cid()) return false;
      }
    }
    return true;
  }
};

class EngineSweep : public ::testing::TestWithParam<core::ConsensusType> {};

TEST_P(EngineSweep, ChainGrowsAndConverges) {
  Cluster c(GetParam(), 4);
  c.start_all();
  c.sched.run_until(10 * sim::kSecond);
  EXPECT_GE(c.min_height(), 10) << consensus_name(GetParam());
  EXPECT_TRUE(c.converged_to(c.min_height()));
}

TEST_P(EngineSweep, SingleValidatorProgresses) {
  Cluster c(GetParam(), 1);
  c.start_all();
  c.sched.run_until(5 * sim::kSecond);
  EXPECT_GE(c.min_height(), 5);
}

TEST_P(EngineSweep, DeterministicAcrossRuns) {
  std::vector<Cid> heads;
  for (int run = 0; run < 2; ++run) {
    Cluster c(GetParam(), 4);
    c.start_all();
    c.sched.run_until(5 * sim::kSecond);
    heads.push_back(c.sources[0]->head_cid());
  }
  EXPECT_EQ(heads[0], heads[1]);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineSweep,
    ::testing::Values(core::ConsensusType::kPoaRoundRobin,
                      core::ConsensusType::kPowerLottery,
                      core::ConsensusType::kTendermint,
                      core::ConsensusType::kRoundRobinBft),
    [](const ::testing::TestParamInfo<core::ConsensusType>& info) {
      std::string name(core::consensus_name(info.param));
      std::erase(name, '-');
      return name;
    });

// ------------------------------------------------------------------- PoA

TEST(Poa, LeadersRotate) {
  Cluster c(core::ConsensusType::kPoaRoundRobin, 4);
  c.start_all();
  c.sched.run_until(5 * sim::kSecond);
  std::set<Address> miners;
  for (chain::Epoch h = 1; h <= c.min_height(); ++h) {
    miners.insert(c.sources[0]->store_.block_at(h)->header.miner);
  }
  EXPECT_EQ(miners.size(), 4u);
}

TEST(Poa, StallsWhileLeaderDownAndRecovers) {
  // Validator 0 (leader of heights 4, 8, ...) is down from the start: the
  // chain must stall just before its first slot, height 4 % 4 == 0 -> the
  // first height with leader index 0 is height 4.
  Cluster c(core::ConsensusType::kPoaRoundRobin, 4);
  c.net.set_node_down(c.ids[0], true);
  for (std::size_t i = 1; i < 4; ++i) c.engines[i]->start();
  c.sched.run_until(5 * sim::kSecond);
  chain::Epoch during = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    during = std::max(during, c.sources[i]->head_height());
  }
  EXPECT_EQ(during, 3);  // heights 1..3 by leaders 1..3; height 4 stalls

  // Recovery: bring validator 0 up. Its stall detection requests heights
  // 1..3 through BlockSync; once the relayed-commit production hold
  // expires it produces height 4, the slot the chain is waiting for.
  c.net.set_node_down(c.ids[0], false);
  c.engines[0]->start();
  c.sched.run_until(10 * sim::kSecond);
  chain::Epoch after = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    after = std::max(after, c.sources[i]->head_height());
  }
  EXPECT_GT(after, during);
}

// ----------------------------------------------------------------- lottery

TEST(Lottery, PowerWeightedSelection) {
  // One validator with 8x power must win roughly 8/11 of the draws.
  std::vector<Validator> members;
  std::vector<crypto::KeyPair> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(crypto::KeyPair::from_label("w-" + std::to_string(i)));
    members.push_back(Validator{keys.back().public_key(),
                                i == 0 ? 8ull : 1ull});
  }
  ValidatorSet set(members);
  int wins = 0;
  const int draws = 2000;
  for (int h = 0; h < draws; ++h) {
    const Cid prev = Cid::of(CidCodec::kBlock, to_bytes(std::to_string(h)));
    const auto order = PowerLottery::rank_validators(set, prev, h);
    if (order[0] == 0) ++wins;
  }
  const double share = static_cast<double>(wins) / draws;
  EXPECT_GT(share, 0.60);  // expected 8/11 ≈ 0.727
  EXPECT_LT(share, 0.85);
}

TEST(Lottery, FallbackWhenLeaderSilent) {
  Cluster c(core::ConsensusType::kPowerLottery, 4);
  // Crash one node before starting: its slots fall back to the next rank.
  c.net.set_node_down(c.ids[2], true);
  for (std::size_t i = 0; i < 4; ++i) {
    if (i != 2) c.engines[i]->start();
  }
  c.sched.run_until(20 * sim::kSecond);
  chain::Epoch h = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i != 2) h = std::max(h, c.sources[i]->head_height());
  }
  EXPECT_GE(h, 10);  // chain keeps a cadence despite the silent miner
}

// -------------------------------------------------------------------- BFT

/// One BFT engine under test and the vote kind its certificates carry.
struct BftCase {
  core::ConsensusType type;
  WireKind qc_kind;
};

class Bft : public ::testing::TestWithParam<BftCase> {};

TEST_P(Bft, CommitCertificatesVerify) {
  Cluster c(GetParam().type, 4);
  c.start_all();
  c.sched.run_until(5 * sim::kSecond);
  ASSERT_GE(c.min_height(), 1);
  // Every committed block carries a valid 2f+1 certificate of last-phase
  // votes (precommits, ACKs).
  int checked = 0;
  for (const auto& proof : c.sources[0]->proofs_) {
    if (proof.empty()) continue;
    auto cert = decode<QuorumCert>(proof);
    ASSERT_TRUE(cert.ok());
    EXPECT_TRUE(cert.value().verify(GetParam().qc_kind,
                                    c.validators.quorum()));
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_P(Bft, ToleratesFCrashFaults) {
  // f = 1 of 4 is down from the start: a backup leader takes over each
  // height it leads (a round skip), so the chain is slower but live.
  for (const std::size_t down : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("validator " + std::to_string(down) + " down");
    Cluster c(GetParam().type, 4);
    c.net.set_node_down(c.ids[down], true);
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != down) c.engines[i]->start();
    }
    c.sched.run_until(20 * sim::kSecond);
    chain::Epoch h = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != down) h = std::max(h, c.sources[i]->head_height());
    }
    EXPECT_GE(h, 5);
  }
}

TEST_P(Bft, HaltsWithoutQuorumThenRecovers) {
  Cluster c(GetParam().type, 4);
  c.start_all();
  c.sched.run_until(2 * sim::kSecond);
  const chain::Epoch before = c.min_height();
  ASSERT_GE(before, 1);

  // Partition 2-2: neither side has 2f+1 = 3.
  c.net.set_partition({{c.ids[0], c.ids[1]}, {c.ids[2], c.ids[3]}});
  c.sched.run_until(8 * sim::kSecond);
  chain::Epoch during = 0;
  for (const auto& s : c.sources) {
    during = std::max(during, s->head_height());
  }
  EXPECT_LE(during, before + 1);  // at most an in-flight commit

  c.net.heal_partition();
  c.sched.run_until(20 * sim::kSecond);
  EXPECT_GT(c.min_height(), during);
  EXPECT_TRUE(c.converged_to(c.min_height()));
}

TEST_P(Bft, SafetyUnderPartition) {
  // No two nodes ever commit different blocks at the same height, even
  // across partitions and healing.
  Cluster c(GetParam().type, 7);
  c.start_all();
  c.sched.run_until(3 * sim::kSecond);
  c.net.set_partition({{c.ids[0], c.ids[1], c.ids[2]},
                       {c.ids[3], c.ids[4], c.ids[5], c.ids[6]}});
  c.sched.run_until(8 * sim::kSecond);
  c.net.heal_partition();
  c.sched.run_until(20 * sim::kSecond);
  EXPECT_TRUE(c.converged_to(c.min_height()));
  EXPECT_GE(c.min_height(), 3);
}

TEST_P(Bft, QuorumCrashRestartResumes) {
  // Crash TWO of four validators (no quorum survives, the chain halts) and
  // restart both from their vote stores. Progress after the restart proves
  // the recovered validators rejoined; convergence proves the restored
  // vote state (and lock) kept them from contradicting any pre-crash vote.
  for (const auto& [a, b] : {std::pair<std::size_t, std::size_t>{1, 2},
                             std::pair<std::size_t, std::size_t>{2, 3}}) {
    SCOPED_TRACE("crash " + std::to_string(a) + " and " + std::to_string(b));
    Cluster c(GetParam().type, 4, {}, /*durable=*/true);
    c.start_all();
    c.sched.run_until(3 * sim::kSecond);
    ASSERT_GE(c.min_height(), 1);
    EXPECT_GT(c.votes[a]->persists_, 0);
    EXPECT_GT(c.votes[b]->persists_, 0);
    c.crash(a);
    c.crash(b);
    c.sched.run_until(8 * sim::kSecond);
    chain::Epoch during = 0;
    for (const auto& s : c.sources) {
      during = std::max(during, s->head_height());
    }

    c.restart(a);
    c.restart(b);
    c.sched.run_until(40 * sim::kSecond);
    chain::Epoch after = 0;
    for (const auto& s : c.sources) {
      after = std::max(after, s->head_height());
    }
    EXPECT_GT(after, during);
    EXPECT_TRUE(c.converged_to(c.min_height()));
  }
}

TEST_P(Bft, NonMemberFollowsWithoutVoting) {
  // A node whose key is not in the validator set runs the engine to follow
  // the chain (SubnetNode does this for non-validators). It may announce
  // the blocks it commits and ask for missed ones, but it must never sign
  // a proposal or a vote.
  Cluster c(GetParam().type, 4);
  const std::size_t observer =
      c.add_node(crypto::KeyPair::from_label("observer"));
  ASSERT_FALSE(c.validators.index_of(c.keys[observer].public_key()));
  std::vector<WireMsg> sent;  // everything the observer published
  const net::NodeId spy = c.net.add_node();
  c.net.subscribe(spy, "subnet/test/consensus");
  c.net.set_topic_handler(spy, [&](net::NodeId, const std::string&,
                                   const net::Envelope& payload) {
    auto msg = payload.decoded<WireMsg>();
    if (msg && msg.value()->sender == c.keys[observer].public_key()) {
      sent.push_back(*msg.value());
    }
  });
  c.start_all();
  c.sched.run_until(5 * sim::kSecond);

  chain::Epoch head = 0;
  for (std::size_t i = 0; i < observer; ++i) {
    head = std::max(head, c.sources[i]->head_height());
  }
  EXPECT_GE(head, 10);
  EXPECT_GE(c.sources[observer]->head_height() + 1, head);
  EXPECT_TRUE(c.converged_to(c.min_height()));
  EXPECT_FALSE(sent.empty());  // its announces reach the spy
  for (const WireMsg& m : sent) {
    const bool sync =
        m.kind == WireKind::kBlock ||
        (m.kind == WireKind::kAck && m.block_cid.is_null());
    EXPECT_TRUE(sync) << "observer signed wire kind "
                      << static_cast<int>(m.kind) << " at height "
                      << m.height;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, Bft,
    ::testing::Values(
        BftCase{core::ConsensusType::kTendermint, WireKind::kPrecommit},
        BftCase{core::ConsensusType::kRoundRobinBft, WireKind::kAck}),
    [](const ::testing::TestParamInfo<BftCase>& info) {
      std::string name(core::consensus_name(info.param.type));
      std::erase(name, '-');
      return name;
    });

// ------------------------------------------------------------- block sync

/// A standalone BlockSync over an EmptySource follower, fed relays of a
/// reference chain whose blocks one authority signed, PoA style: `extra`
/// is its signature over the block's kBlock payload.
struct SyncRig {
  sim::Scheduler sched;
  net::Network net{sched, sim::LatencyModel(5 * sim::kMillisecond, 0), 7};
  crypto::KeyPair authority = crypto::KeyPair::from_label("sync-authority");
  crypto::KeyPair relayer = crypto::KeyPair::from_label("sync-relayer");
  obs::Obs obs;
  EmptySource reference;
  EmptySource follower;
  EngineContext ctx;
  EngineMetrics metrics;
  BlockSync sync;
  std::vector<WireMsg> relays;  // relays[h - 1] carries height h

  explicit SyncRig(int n)
      : ctx(make_context()),
        metrics(ctx, "sync-test"),
        sync(ctx, 100 * sim::kMillisecond, metrics,
             [this](chain::Epoch h, const Cid& cid, const chain::Block&,
                    BytesView proof) {
               auto sig = decode<crypto::Signature>(proof);
               return sig &&
                      crypto::verify(authority.public_key(),
                                     WireMsg::signing_payload(
                                         WireKind::kBlock, h, 0, cid),
                                     sig.value());
             }) {
    for (int i = 0; i < n; ++i) {
      chain::Block b = reference.build_block(
          Address::key(authority.public_key().to_bytes()), {});
      const chain::Epoch h = b.header.height;
      const Cid cid = b.cid();
      const Bytes proof = encode(authority.sign(
          WireMsg::signing_payload(WireKind::kBlock, h, 0, cid)));
      WireMsg relay =
          WireMsg::make(WireKind::kBlock, h, 0, cid, encode(b), relayer);
      relay.extra = proof;
      relays.push_back(std::move(relay));
      reference.commit_block(std::move(b), proof);
    }
  }

  EngineContext make_context() {
    EngineContext c;
    c.scheduler = &sched;
    c.network = &net;
    c.node = net.add_node();
    c.topic = "sync/test";
    c.key = crypto::KeyPair::from_label("sync-follower");
    c.validators = ValidatorSet({Validator{authority.public_key(), 1}});
    c.source = &follower;
    c.obs = &obs;
    return c;
  }

  [[nodiscard]] std::uint64_t requests() const {
    const auto* c = obs.metrics.find_counter(
        "consensus_catchup_requests_total",
        {{"engine", "sync-test"}, {"subnet", ""}});
    return c == nullptr ? 0 : c->value();
  }

  /// The follower holds exactly the reference chain up to its head.
  [[nodiscard]] bool matches_reference() const {
    for (chain::Epoch h = 1; h <= follower.head_height(); ++h) {
      if (follower.store_.block_at(h)->cid() !=
              reference.store_.block_at(h)->cid() ||
          follower.proof_at(h) != reference.proof_at(h)) {
        return false;
      }
    }
    return true;
  }
};

TEST(BlockSync, ReverseOrderCommitsInOrder) {
  SyncRig rig(20);
  for (std::size_t i = rig.relays.size(); i-- > 1;) {
    rig.sync.on_message(rig.relays[i]);
    EXPECT_EQ(rig.follower.head_height(), 0);  // height 1 still missing
  }
  EXPECT_EQ(rig.sync.buffered(), 19u);
  EXPECT_FALSE(rig.sync.holding());
  EXPECT_EQ(rig.sync.on_message(rig.relays[0]), 20u);
  EXPECT_TRUE(rig.sync.holding());  // relayed commits hold production
  EXPECT_EQ(rig.follower.head_height(), 20);
  EXPECT_EQ(rig.sync.buffered(), 0u);
  EXPECT_TRUE(rig.matches_reference());
  // The gap is noticed at once, and the rate limit keeps it one request.
  EXPECT_EQ(rig.requests(), 1u);
}

TEST(BlockSync, ShuffledOrderCommitsInOrder) {
  SyncRig rig(40);
  std::vector<std::size_t> order(rig.relays.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  sim::Rng rng(11);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform(i)]);
  }
  std::vector<bool> seen(order.size(), false);
  for (std::size_t i : order) {
    rig.sync.on_message(rig.relays[i]);
    seen[i] = true;
    // The head is always exactly the contiguous delivered prefix.
    chain::Epoch prefix = 0;
    while (prefix < static_cast<chain::Epoch>(seen.size()) &&
           seen[static_cast<std::size_t>(prefix)]) {
      ++prefix;
    }
    ASSERT_EQ(rig.follower.head_height(), prefix);
  }
  EXPECT_EQ(rig.follower.head_height(), 40);
  EXPECT_TRUE(rig.matches_reference());
  // Duplicates of committed heights are ignored.
  EXPECT_EQ(rig.sync.on_message(rig.relays[5]), 0u);
  EXPECT_EQ(rig.follower.head_height(), 40);
}

TEST(BlockSync, BufferBoundHoldsUnderFarFutureFlood) {
  constexpr chain::Epoch kAhead = BlockSync::kMaxAhead;
  SyncRig rig(static_cast<int>(kAhead) + 200);
  for (std::size_t i = 1; i < rig.relays.size(); ++i) {
    rig.sync.on_message(rig.relays[i]);
    ASSERT_LE(rig.sync.buffered(), static_cast<std::size_t>(kAhead));
  }
  EXPECT_EQ(rig.follower.head_height(), 0);
  EXPECT_EQ(rig.sync.buffered(), static_cast<std::size_t>(kAhead) - 1);
  EXPECT_EQ(rig.requests(), 1u);  // the whole flood sends one request

  // The gap fills: everything within the window commits, the rest was
  // dropped and must be served again.
  rig.sync.on_message(rig.relays[0]);
  EXPECT_EQ(rig.follower.head_height(), kAhead);
  EXPECT_EQ(rig.sync.buffered(), 0u);
  for (std::size_t i = static_cast<std::size_t>(kAhead);
       i < rig.relays.size(); ++i) {
    rig.sync.on_message(rig.relays[i]);
  }
  EXPECT_EQ(rig.follower.head_height(), kAhead + 200);
  EXPECT_TRUE(rig.matches_reference());
}

TEST(BlockSync, ServesUpToSixteenBlocksOnRequest) {
  SyncRig rig(20);
  for (const auto& r : rig.relays) rig.sync.on_message(r);
  ASSERT_EQ(rig.follower.head_height(), 20);
  const net::NodeId peer = rig.net.add_node();
  rig.net.subscribe(rig.ctx.node, rig.ctx.topic);
  rig.net.subscribe(peer, rig.ctx.topic);
  std::vector<WireMsg> served;
  rig.net.set_topic_handler(peer, [&](net::NodeId, const std::string&,
                                      const net::Envelope& payload) {
    served.push_back(*payload.decoded<WireMsg>().value());
  });
  rig.sync.on_message(WireMsg::make(WireKind::kAck, 3, 0, Cid(), {},
                                    crypto::KeyPair::from_label("asker")));
  rig.sched.run_until(sim::kSecond);
  ASSERT_EQ(served.size(), static_cast<std::size_t>(BlockSync::kMaxServe));
  std::set<chain::Epoch> heights;
  for (const auto& m : served) {
    heights.insert(m.height);
    EXPECT_EQ(m.extra, rig.reference.proof_at(m.height));
  }
  EXPECT_EQ(*heights.begin(), 3);
  EXPECT_EQ(*heights.rbegin(), 18);
}

/// A kBlock relay of `block` at height 1 from a non-validator relayer.
WireMsg relay_of(const chain::Block& block, Bytes proof) {
  WireMsg m = WireMsg::make(WireKind::kBlock, 1, 0, block.cid(),
                            encode(block),
                            crypto::KeyPair::from_label("relayer"));
  m.extra = std::move(proof);
  return m;
}

void deliver(Cluster& c, std::size_t to, const WireMsg& msg) {
  c.engines[to]->on_message(c.ids[(to + 1) % c.ids.size()],
                            net::Envelope(encode(msg)));
}

TEST(BlockSync, PoaRejectsForgedLeaderSignature) {
  // Only validator 0 runs, so nothing but the injected relays can move its
  // chain. Height 1's leader is validator 1.
  Cluster c(core::ConsensusType::kPoaRoundRobin, 4);
  c.engines[0]->start();
  EmptySource scratch;
  const chain::Block block =
      scratch.build_block(c.validators.members()[1].address(), {});
  const Bytes payload =
      WireMsg::signing_payload(WireKind::kBlock, 1, 0, block.cid());

  // Signed by a validator that does not lead height 1, by an outsider, and
  // by the leader over a different height: all rejected.
  const Bytes other_height =
      WireMsg::signing_payload(WireKind::kBlock, 2, 0, block.cid());
  deliver(c, 0, relay_of(block, encode(c.keys[2].sign(payload))));
  deliver(c, 0, relay_of(block, encode(crypto::KeyPair::from_label("x")
                                           .sign(payload))));
  deliver(c, 0, relay_of(block, encode(c.keys[1].sign(other_height))));
  deliver(c, 0, relay_of(block, {}));
  EXPECT_EQ(c.sources[0]->head_height(), 0);

  // The leader's own signature commits it.
  deliver(c, 0, relay_of(block, encode(c.keys[1].sign(payload))));
  EXPECT_EQ(c.sources[0]->head_height(), 1);
}

TEST(BlockSync, PoaRelayedProofHitsTheSigCache) {
  // All replicas share one process, so a lagging replica's relayed copy of
  // a block carries the leader signature its peers already verified on the
  // gossip copy: checking that proof must be a SigCache hit, not a fresh
  // verification.
  Cluster c(core::ConsensusType::kPoaRoundRobin, 4);
  c.engines[0]->start();
  EmptySource scratch;
  const chain::Block block =
      scratch.build_block(c.validators.members()[1].address(), {});
  const WireMsg gossip = WireMsg::make(WireKind::kBlock, 1, 0, block.cid(),
                                       encode(block), c.keys[1]);
  ASSERT_TRUE(gossip.verify());  // a peer's receipt of the leader's copy
  const WireMsg relay = relay_of(block, encode(gossip.signature));
  ASSERT_TRUE(relay.verify());  // so only the proof is left to check
  const std::uint64_t hits = crypto::SigCache::instance().hits();
  const std::uint64_t misses = crypto::SigCache::instance().misses();
  deliver(c, 0, relay);
  EXPECT_EQ(c.sources[0]->head_height(), 1);
  // The relay's own signature and the proof, both cached.
  EXPECT_EQ(crypto::SigCache::instance().hits(), hits + 2);
  EXPECT_EQ(crypto::SigCache::instance().misses(), misses);
}

/// A QuorumCert for `block` at height 1 signed by `signers` over `vote`.
Bytes cert_for(const chain::Block& block, WireKind vote,
               const std::vector<crypto::KeyPair>& signers) {
  QuorumCert qc;
  qc.height = 1;
  qc.block_cid = block.cid();
  const Bytes payload = WireMsg::signing_payload(vote, 1, 0, block.cid());
  for (const auto& k : signers) {
    qc.signers.push_back(k.public_key());
    qc.signatures.push_back(k.sign(payload));
  }
  return encode(qc);
}

TEST(BlockSync, BftRejectsSubQuorumAndNonMemberCerts) {
  for (const auto& [type, vote] :
       {std::pair{core::ConsensusType::kTendermint, WireKind::kPrecommit},
        std::pair{core::ConsensusType::kRoundRobinBft, WireKind::kAck}}) {
    SCOPED_TRACE(std::string(core::consensus_name(type)));
    Cluster c(type, 4);  // quorum 3
    c.engines[0]->start();
    EmptySource scratch;
    const chain::Block block =
        scratch.build_block(c.validators.members()[1].address(), {});
    const std::vector<crypto::KeyPair> outsiders = {
        crypto::KeyPair::from_label("o1"), crypto::KeyPair::from_label("o2"),
        crypto::KeyPair::from_label("o3")};

    const std::vector<crypto::KeyPair> members = {c.keys[1], c.keys[2],
                                                  c.keys[3]};
    auto members_plus = [&](const crypto::KeyPair& k) {
      auto out = members;
      out.push_back(k);
      return out;
    };

    // Two of four members: below the quorum.
    deliver(c, 0, relay_of(block, cert_for(block, vote, {c.keys[1],
                                                         c.keys[2]})));
    // Quorum-sized, but nobody in it is a member.
    deliver(c, 0, relay_of(block, cert_for(block, vote, outsiders)));
    // A member quorum plus one outsider: every signer must be a member.
    deliver(c, 0, relay_of(block, cert_for(block, vote,
                                           members_plus(outsiders[0]))));
    // A member quorum over the wrong vote kind.
    deliver(c, 0,
            relay_of(block, cert_for(block, WireKind::kPrevote, members)));
    EXPECT_EQ(c.sources[0]->head_height(), 0);

    deliver(c, 0, relay_of(block, cert_for(block, vote, members)));
    EXPECT_EQ(c.sources[0]->head_height(), 1);
  }
}

TEST(BlockSync, LotteryReplicaCatchesUpAfterRestart) {
  // A lottery chain never stalls, so nothing but BlockSync tells a miner
  // restarted behind its peers that it is behind. It must rejoin their
  // chain, not mine its own fork from its stale head.
  for (std::size_t victim = 0; victim < 4; ++victim) {
    SCOPED_TRACE("victim " + std::to_string(victim));
    Cluster c(core::ConsensusType::kPowerLottery, 4, {}, /*durable=*/true);
    c.start_all();
    c.sched.run_until(2 * sim::kSecond);
    c.crash(victim);
    c.sched.run_until(8 * sim::kSecond);
    chain::Epoch highest = 0;
    for (const auto& s : c.sources) {
      highest = std::max(highest, s->head_height());
    }
    // More than one served batch behind.
    ASSERT_GT(highest - c.sources[victim]->head_height(),
              BlockSync::kMaxServe);
    c.restart(victim);
    c.sched.run_until(14 * sim::kSecond);
    for (const auto& s : c.sources) {
      highest = std::max(highest, s->head_height());
    }
    EXPECT_TRUE(c.converged_to(c.min_height()));
    for (const auto& s : c.sources) {
      EXPECT_GE(s->head_height() + 1, highest);
    }
  }
}

TEST(BlockSync, LotteryUnattachableBlockDoesNotStopMiners) {
  // One validator signs a block at head+2 over a parent nobody has. Its
  // ticket ranks over that made-up parent, so the proof check passes and
  // every miner buffers it; it never attaches. A buffered block must not
  // hold back mining, or this one block would halt the chain.
  Cluster c(core::ConsensusType::kPowerLottery, 4);
  c.start_all();
  c.sched.run_until(1 * sim::kSecond);
  const chain::Epoch before = c.min_height();
  const chain::Epoch height = c.sources[0]->head_height() + 2;

  chain::Block forged;
  forged.header.parent =
      Cid::of(CidCodec::kBlock, to_bytes(std::string("nobody's parent")));
  forged.header.height = height;
  forged.header.miner = c.validators.members()[0].address();
  const auto order =
      PowerLottery::rank_validators(c.validators, forged.header.parent, height);
  Encoder ticket;
  ticket.varint(static_cast<std::uint64_t>(
      std::find(order.begin(), order.end(), 0u) - order.begin()));
  forged.header.ticket = ticket.data();
  forged.header.msgs_root = forged.compute_msgs_root();
  const net::NodeId byz = c.net.add_node();
  c.net.publish(byz, "subnet/test/consensus",
                encode(WireMsg::make(WireKind::kBlock, height, 0,
                                     forged.cid(), encode(forged),
                                     c.keys[0])));

  c.sched.run_until(3 * sim::kSecond);
  EXPECT_GT(c.min_height(), before + 10);
  EXPECT_TRUE(c.converged_to(c.min_height()));
}

// ----------------------------------------------- durable vote state (§15)

TEST(VoteRestore, PoaNeverReproducesARestoredHeight) {
  // A single validator leads every height. With a restored production
  // height of 5 and an empty chain (lazy block fsync lost the tail, the
  // always-fsynced vote record survived), it must stay silent: producing
  // heights 1..5 again could conflict with blocks only peers still hold.
  Cluster c(core::ConsensusType::kPoaRoundRobin, 1, {}, /*durable=*/true);
  c.votes[0]->recovered_ = encode(PoaVoteState{5});
  c.start_all();
  c.sched.run_until(5 * sim::kSecond);
  EXPECT_EQ(c.sources[0]->head_height(), 0);
}

TEST(VoteRestore, LotteryNeverReproposesARestoredHeight) {
  Cluster c(core::ConsensusType::kPowerLottery, 1, {}, /*durable=*/true);
  c.votes[0]->recovered_ = encode(LotteryVoteState{5});
  c.start_all();
  c.sched.run_until(5 * sim::kSecond);
  EXPECT_EQ(c.sources[0]->head_height(), 0);
}

TEST(VoteRestore, PoaPersistsBeforeProducing) {
  Cluster c(core::ConsensusType::kPoaRoundRobin, 4, {}, /*durable=*/true);
  c.start_all();
  c.sched.run_until(3 * sim::kSecond);
  ASSERT_GE(c.min_height(), 4);
  // Every validator produced at least once, and wrote ahead each time.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(c.votes[i]->persists_, 0) << "validator " << i;
    auto st = decode<PoaVoteState>(c.votes[i]->saved_);
    ASSERT_TRUE(st.ok());
    EXPECT_GT(st.value().last_produced, 0u);
  }
}

TEST(VoteRestore, VoteStateBytesArePinned) {
  // A recovered WAL record must decode after an upgrade, so the encodings
  // are part of the on-disk format. A lone validator decides height 1 at
  // 100 ms and writes ahead before each signature: its proposal, then each
  // vote. Fields: height (i64), round (u32), proposed, one flag per vote
  // phase (u8 each), then Tendermint's lock: locked round (i64) and the
  // locked block (varint length + encoded block).
  {
    Cluster c(core::ConsensusType::kTendermint, 1, {}, /*durable=*/true);
    c.start_all();
    c.sched.run_until(150 * sim::kMillisecond);
    ASSERT_EQ(c.sources[0]->head_height(), 1);
    const auto& log = c.votes[0]->history_;
    ASSERT_GE(log.size(), 3u);
    EXPECT_EQ(to_hex(log[0]),
              "0000000000000001" "00000000" "01" "00" "00"
              "ffffffffffffffff" "00");
    EXPECT_EQ(to_hex(log[1]),
              "0000000000000001" "00000000" "01" "01" "00"
              "ffffffffffffffff" "00");
    // The precommit locks on the block it commits.
    Encoder locked;
    locked.bytes(encode(*c.sources[0]->block_at(1)));
    EXPECT_EQ(to_hex(log[2]),
              "0000000000000001" "00000000" "01" "01" "01"
              "0000000000000000" + to_hex(locked.data()));
  }
  {
    Cluster c(core::ConsensusType::kRoundRobinBft, 1, {}, /*durable=*/true);
    c.start_all();
    c.sched.run_until(150 * sim::kMillisecond);
    ASSERT_EQ(c.sources[0]->head_height(), 1);
    const auto& log = c.votes[0]->history_;
    ASSERT_GE(log.size(), 2u);
    EXPECT_EQ(to_hex(log[0]), "0000000000000001" "00000000" "01" "00");
    EXPECT_EQ(to_hex(log[1]), "0000000000000001" "00000000" "01" "01");
  }
}

// ----------------------------------------------------------- validator set

TEST(ValidatorSetOps, QuorumMath) {
  auto make = [](int n) {
    std::vector<Validator> ms;
    for (int i = 0; i < n; ++i) {
      ms.push_back(Validator{
          crypto::KeyPair::from_label("q" + std::to_string(i)).public_key(),
          1});
    }
    return ValidatorSet(ms);
  };
  EXPECT_EQ(make(1).quorum(), 1u);
  EXPECT_EQ(make(4).quorum(), 3u);
  EXPECT_EQ(make(7).quorum(), 5u);
  EXPECT_EQ(make(10).quorum(), 7u);
  EXPECT_EQ(make(4).max_faulty(), 1u);
  EXPECT_EQ(make(10).max_faulty(), 3u);
}

TEST(ValidatorSetOps, IndexAndPower) {
  std::vector<Validator> ms;
  for (int i = 0; i < 3; ++i) {
    ms.push_back(Validator{
        crypto::KeyPair::from_label("p" + std::to_string(i)).public_key(),
        static_cast<std::uint64_t>(i + 1)});
  }
  ValidatorSet set(ms);
  EXPECT_EQ(set.total_power(), 6u);
  EXPECT_EQ(*set.index_of(ms[1].key), 1u);
  EXPECT_FALSE(
      set.index_of(crypto::KeyPair::from_label("zz").public_key()).has_value());
}

}  // namespace
}  // namespace hc::consensus

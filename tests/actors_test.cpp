// Unit tests for the actor layer: Init/Account/KV actors, SA lifecycle
// (join/leave/kill/checkpoints/slashing) and SCA mechanics (registration,
// collateral, cross-msgs, firewall, checkpoint window, atomic execution).
#include <gtest/gtest.h>

#include <array>
#include <random>

#include "harness.hpp"
#include "memo_check.hpp"

namespace hc::testing {
namespace {

using actors::sa_method::kGetInfo;
using actors::sa_method::kJoin;
using actors::sa_method::kKill;
using actors::sa_method::kLeave;
using actors::sa_method::kSubmitCheckpoint;
namespace sca = actors::sca_method;
namespace kv = actors::kv_method;

core::SubnetParams default_params(std::uint32_t threshold = 1) {
  core::SubnetParams p;
  p.name = "testnet";
  p.consensus = core::ConsensusType::kPoaRoundRobin;
  p.min_validator_stake = TokenAmount::whole(5);
  p.min_collateral = TokenAmount::whole(10);
  p.checkpoint_period = 10;
  p.checkpoint_policy =
      core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, threshold};
  return p;
}

Bytes join_params(const User& u) {
  return encode(actors::JoinParams{u.key.public_key()});
}

struct ActorsFixture : ::testing::Test {
  ChainWorld world;

  /// Deploy an SA and have `validators` join with `stake` each.
  Address setup_subnet(const core::SubnetParams& params,
                       std::vector<User*> validators, TokenAmount stake) {
    Address sa = world.deploy_sa(*validators[0], params);
    EXPECT_TRUE(sa.valid());
    for (User* v : validators) {
      auto r = world.call(*v, sa, kJoin, join_params(*v), stake);
      EXPECT_TRUE(r.ok()) << r.error;
    }
    return sa;
  }
};

// ------------------------------------------------------------- init actor

TEST_F(ActorsFixture, InitDeploysActorsWithSequentialIds) {
  User& alice = world.user("alice");
  Address a = world.deploy_sa(alice, default_params());
  Address b = world.deploy_sa(alice, default_params());
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(a, Address::id(100));
  EXPECT_EQ(b, Address::id(101));
}

TEST_F(ActorsFixture, InitRefusesReservedCodes) {
  User& alice = world.user("alice");
  actors::ExecParams exec;
  exec.code = chain::kCodeSca;
  auto r = world.call(alice, chain::kInitAddr, actors::init_method::kExec,
                      encode(exec), TokenAmount());
  EXPECT_FALSE(r.ok());
}

TEST_F(ActorsFixture, AccountRejectsMethodCalls) {
  User& alice = world.user("alice");
  User& bob = world.user("bob");
  auto r = world.call(alice, bob.addr, 42, {}, TokenAmount());
  EXPECT_EQ(r.exit, chain::ExitCode::kActorError);
}

// --------------------------------------------------------------- kv actor

TEST_F(ActorsFixture, KvPutGetLockCycle) {
  User& alice = world.user("alice");
  actors::ExecParams exec;
  exec.code = chain::kCodeKvApp;
  auto dep = world.call(alice, chain::kInitAddr, actors::init_method::kExec,
                        encode(exec), TokenAmount());
  ASSERT_TRUE(dep.ok());
  const Address app = decode<Address>(dep.ret).value();

  actors::KvParams put{to_bytes("k"), to_bytes("v1")};
  ASSERT_TRUE(world.call(alice, app, kv::kPut, encode(put), {}).ok());

  actors::KvParams get{to_bytes("k"), {}};
  auto got = world.call(alice, app, kv::kGet, encode(get), {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ret, to_bytes("v1"));

  // Lock freezes writes (atomic-execution input, paper §IV-D).
  auto locked = world.call(alice, app, kv::kLock, encode(get), {});
  ASSERT_TRUE(locked.ok());
  EXPECT_EQ(locked.ret, to_bytes("v1"));  // returns the input state
  actors::KvParams put2{to_bytes("k"), to_bytes("v2")};
  EXPECT_FALSE(world.call(alice, app, kv::kPut, encode(put2), {}).ok());

  // ApplyOutput installs the atomic result and unlocks.
  actors::KvParams out{to_bytes("k"), to_bytes("swapped")};
  ASSERT_TRUE(world.call(alice, app, kv::kApplyOutput, encode(out), {}).ok());
  got = world.call(alice, app, kv::kGet, encode(get), {});
  EXPECT_EQ(got.ret, to_bytes("swapped"));
  EXPECT_TRUE(world.call(alice, app, kv::kPut, encode(put2), {}).ok());
}

// ------------------------------------------------------- SA join/register

TEST_F(ActorsFixture, JoinBelowMinStakeRejected) {
  User& v = world.user("val");
  Address sa = world.deploy_sa(v, default_params());
  auto r = world.call(v, sa, kJoin, join_params(v), TokenAmount::whole(1));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.exit, chain::ExitCode::kSysInsufficientFunds);
}

TEST_F(ActorsFixture, JoinCannotUseSomeoneElsesKey) {
  User& v = world.user("val");
  User& w = world.user("other");
  Address sa = world.deploy_sa(v, default_params());
  auto r = world.call(v, sa, kJoin, join_params(w), TokenAmount::whole(10));
  EXPECT_FALSE(r.ok());
}

TEST_F(ActorsFixture, RegistrationHappensAtCollateralThreshold) {
  User& v0 = world.user("v0");
  User& v1 = world.user("v1");
  Address sa = world.deploy_sa(v0, default_params());

  // First join: 5 < min_collateral 10 — not yet registered.
  ASSERT_TRUE(world.call(v0, sa, kJoin, join_params(v0), TokenAmount::whole(5))
                  .ok());
  EXPECT_FALSE(world.sa_state(sa).registered);
  EXPECT_TRUE(world.sca_state().subnets.empty());

  // Second join crosses the threshold: SA registers with the SCA.
  ASSERT_TRUE(world.call(v1, sa, kJoin, join_params(v1), TokenAmount::whole(5))
                  .ok());
  const auto sa_st = world.sa_state(sa);
  EXPECT_TRUE(sa_st.registered);
  EXPECT_EQ(sa_st.subnet_id, core::SubnetId::root().child(sa));

  const auto sca_st = world.sca_state();
  ASSERT_EQ(sca_st.subnets.size(), 1u);
  const auto& entry = sca_st.subnets.begin()->second;
  EXPECT_EQ(entry.id, sa_st.subnet_id);
  EXPECT_EQ(entry.collateral, TokenAmount::whole(10));
  EXPECT_EQ(entry.status, core::SubnetStatus::kActive);
  // Collateral physically moved into the SCA.
  EXPECT_EQ(world.balance(chain::kScaAddr), TokenAmount::whole(10));
}

TEST_F(ActorsFixture, LaterJoinsAddStake) {
  User& v0 = world.user("v0");
  User& v1 = world.user("v1");
  Address sa = setup_subnet(default_params(), {&v0}, TokenAmount::whole(10));
  ASSERT_TRUE(world.call(v1, sa, kJoin, join_params(v1), TokenAmount::whole(7))
                  .ok());
  EXPECT_EQ(world.sca_state().subnets.begin()->second.collateral,
            TokenAmount::whole(17));
}

// --------------------------------------------------------- SA leave/kill

TEST_F(ActorsFixture, LeaveRefundsStakeAndMayDeactivate) {
  User& v0 = world.user("v0");
  User& v1 = world.user("v1");
  Address sa = setup_subnet(default_params(), {&v0, &v1},
                            TokenAmount::whole(6));
  // Total collateral 12 >= 10 (active). v1 leaves: 6 < 10 -> inactive.
  const TokenAmount before = world.balance(v1.addr);
  auto r = world.call(v1, sa, kLeave, {}, TokenAmount());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(world.balance(v1.addr), before);  // refund arrived (minus gas)
  const auto sca_st = world.sca_state();
  const auto& entry = sca_st.subnets.begin()->second;
  EXPECT_EQ(entry.collateral, TokenAmount::whole(6));
  EXPECT_EQ(entry.status, core::SubnetStatus::kInactive);
  EXPECT_EQ(world.sa_state(sa).validators.size(), 1u);
}

TEST_F(ActorsFixture, RejoinReactivatesSubnet) {
  User& v0 = world.user("v0");
  User& v1 = world.user("v1");
  Address sa = setup_subnet(default_params(), {&v0, &v1},
                            TokenAmount::whole(6));
  ASSERT_TRUE(world.call(v1, sa, kLeave, {}, TokenAmount()).ok());
  ASSERT_EQ(world.sca_state().subnets.begin()->second.status,
            core::SubnetStatus::kInactive);
  ASSERT_TRUE(world.call(v1, sa, kJoin, join_params(v1), TokenAmount::whole(6))
                  .ok());
  EXPECT_EQ(world.sca_state().subnets.begin()->second.status,
            core::SubnetStatus::kActive);
}

TEST_F(ActorsFixture, NonValidatorCannotLeave) {
  User& v0 = world.user("v0");
  User& mallory = world.user("mallory");
  Address sa = setup_subnet(default_params(), {&v0}, TokenAmount::whole(10));
  EXPECT_FALSE(world.call(mallory, sa, kLeave, {}, TokenAmount()).ok());
}

TEST_F(ActorsFixture, KillRequiresEmptyValidatorSet) {
  User& v0 = world.user("v0");
  Address sa = setup_subnet(default_params(), {&v0}, TokenAmount::whole(10));
  EXPECT_FALSE(world.call(v0, sa, kKill, {}, TokenAmount()).ok());
  ASSERT_TRUE(world.call(v0, sa, kLeave, {}, TokenAmount()).ok());
  auto r = world.call(v0, sa, kKill, {}, TokenAmount());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(world.sa_state(sa).killed);
  EXPECT_EQ(world.sca_state().subnets.begin()->second.status,
            core::SubnetStatus::kKilled);
  // A killed SA refuses everything.
  EXPECT_FALSE(world.call(v0, sa, kJoin, join_params(v0),
                          TokenAmount::whole(10))
                   .ok());
}

// ------------------------------------------------------------ checkpoints

struct CheckpointFixture : ActorsFixture {
  User* v0 = nullptr;
  User* v1 = nullptr;
  User* v2 = nullptr;
  Address sa;
  core::SubnetId subnet;

  void SetUp() override {
    v0 = &world.user("v0");
    v1 = &world.user("v1");
    v2 = &world.user("v2");
    sa = setup_subnet(default_params(/*threshold=*/2), {v0, v1, v2},
                      TokenAmount::whole(5));
    subnet = core::SubnetId::root().child(sa);
  }

  core::SignedCheckpoint make_signed(chain::Epoch epoch, Cid prev,
                                     std::vector<User*> signers) {
    core::SignedCheckpoint sc;
    sc.checkpoint.source = subnet;
    sc.checkpoint.epoch = epoch;
    sc.checkpoint.proof =
        Cid::of(CidCodec::kBlock, to_bytes("blk@" + std::to_string(epoch)));
    sc.checkpoint.prev = prev;
    for (User* u : signers) sc.add_signature(u->key);
    return sc;
  }
};

TEST_F(CheckpointFixture, ValidCheckpointFlowsToSca) {
  auto sc = make_signed(10, Cid(), {v0, v1});
  auto r = world.call(*v0, sa, kSubmitCheckpoint, encode(sc), TokenAmount());
  ASSERT_TRUE(r.ok()) << r.error;
  const auto sca_st = world.sca_state();
  const auto& entry = sca_st.subnets.begin()->second;
  ASSERT_EQ(entry.checkpoints.size(), 1u);
  EXPECT_EQ(entry.checkpoints[0], sc.checkpoint.cid());
  EXPECT_EQ(entry.last_checkpoint_epoch, 10);
  EXPECT_EQ(world.sa_state(sa).last_checkpoint, sc.checkpoint.cid());
}

TEST_F(CheckpointFixture, PolicyThresholdEnforced) {
  auto sc = make_signed(10, Cid(), {v0});  // 1 < threshold 2
  EXPECT_FALSE(
      world.call(*v0, sa, kSubmitCheckpoint, encode(sc), TokenAmount()).ok());
}

TEST_F(CheckpointFixture, PrevLinkageEnforced) {
  auto first = make_signed(10, Cid(), {v0, v1});
  ASSERT_TRUE(world.call(*v0, sa, kSubmitCheckpoint, encode(first), {}).ok());
  // Wrong prev.
  auto bad = make_signed(20, Cid(), {v0, v1});
  EXPECT_FALSE(world.call(*v0, sa, kSubmitCheckpoint, encode(bad), {}).ok());
  // Correct prev.
  auto good = make_signed(20, first.checkpoint.cid(), {v0, v1});
  EXPECT_TRUE(world.call(*v0, sa, kSubmitCheckpoint, encode(good), {}).ok());
}

TEST_F(CheckpointFixture, StaleEpochRejected) {
  auto first = make_signed(10, Cid(), {v0, v1});
  ASSERT_TRUE(world.call(*v0, sa, kSubmitCheckpoint, encode(first), {}).ok());
  auto stale = make_signed(10, first.checkpoint.cid(), {v0, v1});
  EXPECT_FALSE(world.call(*v0, sa, kSubmitCheckpoint, encode(stale), {}).ok());
}

TEST_F(CheckpointFixture, OutsiderSignaturesRejected) {
  User& outsider = world.user("outsider");
  core::SignedCheckpoint sc = make_signed(10, Cid(), {v0});
  sc.add_signature(outsider.key);
  EXPECT_FALSE(world.call(*v0, sa, kSubmitCheckpoint, encode(sc), {}).ok());
}

// --------------------------------------------------------------- slashing

TEST_F(CheckpointFixture, FraudProofSlashesEquivocator) {
  // v0 signs two conflicting checkpoints for epoch 10.
  auto a = make_signed(10, Cid(), {v0, v1});
  auto b = make_signed(10, Cid(), {v0, v2});
  b.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("fork"));
  // Re-sign b (proof changed after signing in make_signed).
  b.signatures.clear();
  b.add_signature(v0->key);
  b.add_signature(v2->key);

  core::FraudProof proof{a, b};
  const TokenAmount collateral_before =
      world.sca_state().subnets.begin()->second.collateral;

  User& reporter = world.user("reporter");
  auto r = world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                      encode(proof), TokenAmount());
  ASSERT_TRUE(r.ok()) << r.error;

  const auto sca_after = world.sca_state();
  const auto& entry = sca_after.subnets.begin()->second;
  // v0's 5-token stake slashed off the collateral and quarantined in the
  // pot (NOT kBurnAddr: slashes have no parent-side release, so burning
  // them would desync the parent's circulating-supply figure).
  EXPECT_EQ(entry.collateral, collateral_before - TokenAmount::whole(5));
  EXPECT_EQ(world.balance(chain::kSlashPotAddr), TokenAmount::whole(5));
  EXPECT_EQ(world.balance(chain::kBurnAddr), TokenAmount());
  // v0 removed from the validator set.
  const auto sa_st = world.sa_state(sa);
  EXPECT_EQ(sa_st.validators.size(), 2u);
  for (const auto& v : sa_st.validators) {
    EXPECT_NE(v.pubkey, v0->key.public_key());
  }
  // 15 - 5 = 10 >= min; still active.
  EXPECT_EQ(entry.status, core::SubnetStatus::kActive);
}

TEST_F(CheckpointFixture, SlashingBelowMinimumDeactivates) {
  // Slash two validators (10 of 15) -> collateral 5 < 10 -> inactive.
  auto a = make_signed(10, Cid(), {v0, v1});
  auto b = make_signed(10, Cid(), {v0, v1});
  b.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("fork"));
  b.signatures.clear();
  b.add_signature(v0->key);
  b.add_signature(v1->key);

  User& reporter = world.user("reporter");
  auto r = world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                      encode(core::FraudProof{a, b}), TokenAmount());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(world.sca_state().subnets.begin()->second.status,
            core::SubnetStatus::kInactive);
}

TEST_F(CheckpointFixture, InvalidFraudProofRejected) {
  auto a = make_signed(10, Cid(), {v0, v1});
  User& reporter = world.user("reporter");
  // Identical checkpoints: no equivocation.
  auto r = world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                      encode(core::FraudProof{a, a}), TokenAmount());
  EXPECT_FALSE(r.ok());
}

TEST_F(CheckpointFixture, FraudProofReplayAndMirrorRejected) {
  auto a = make_signed(10, Cid(), {v0, v1});
  auto b = make_signed(10, Cid(), {v0, v2});
  b.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("fork"));
  b.signatures.clear();
  b.add_signature(v0->key);
  b.add_signature(v2->key);
  // A mirrored proof hashes to the same canonical digest.
  EXPECT_EQ(core::FraudProof({a, b}).digest(),
            core::FraudProof({b, a}).digest());

  User& reporter = world.user("reporter");
  ASSERT_TRUE(world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                         encode(core::FraudProof{a, b}), TokenAmount())
                  .ok());
  const TokenAmount collateral =
      world.sca_state().subnets.begin()->second.collateral;

  // Replay and mirror both conflict instead of slashing twice.
  EXPECT_FALSE(world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                          encode(core::FraudProof{a, b}), TokenAmount())
                   .ok());
  EXPECT_FALSE(world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                          encode(core::FraudProof{b, a}), TokenAmount())
                   .ok());
  const auto sca_st = world.sca_state();
  EXPECT_EQ(sca_st.subnets.begin()->second.collateral, collateral);
  EXPECT_EQ(sca_st.slash_records.size(), 1u);
  EXPECT_EQ(sca_st.fraud_digests.size(), 1u);
}

TEST_F(CheckpointFixture, DifferentlyAssembledProofCannotDoubleSlash) {
  // v0 equivocates; two reporters assemble DIFFERENT proofs over the same
  // offence (other co-signer, other forged side -> distinct digests). The
  // per-(subnet, epoch, signer) slash record must stop the second one.
  auto honest = make_signed(10, Cid(), {v0, v1});
  auto fork1 = make_signed(10, Cid(), {});
  fork1.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("fork-1"));
  fork1.add_signature(v0->key);
  auto fork2 = make_signed(10, Cid(), {});
  fork2.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("fork-2"));
  fork2.add_signature(v0->key);

  User& reporter = world.user("reporter");
  ASSERT_TRUE(world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                         encode(core::FraudProof{honest, fork1}),
                         TokenAmount())
                  .ok());
  const auto second =
      world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                 encode(core::FraudProof{honest, fork2}), TokenAmount());
  EXPECT_FALSE(second.ok());
  const auto sca_st = world.sca_state();
  EXPECT_EQ(sca_st.slash_records.size(), 1u);
  // Only v0's 5 burned; v1's collateral share untouched.
  EXPECT_EQ(sca_st.subnets.begin()->second.collateral,
            TokenAmount::whole(10));
}

TEST_F(CheckpointFixture, LaterEpochProofAgainstRemovedValidatorConflicts) {
  auto a = make_signed(10, Cid(), {v0, v1});
  auto b = make_signed(10, Cid(), {v0, v2});
  b.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("fork"));
  b.signatures.clear();
  b.add_signature(v0->key);
  b.add_signature(v2->key);
  User& reporter = world.user("reporter");
  ASSERT_TRUE(world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                         encode(core::FraudProof{a, b}), TokenAmount())
                  .ok());

  // v0 equivocates again at a later epoch, but is already out of the SA:
  // a fresh proof must conflict, not mint a second slash record.
  auto c = make_signed(20, Cid(), {v0, v1});
  auto d = make_signed(20, Cid(), {v0, v1});
  d.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("fork-20"));
  d.signatures.clear();
  d.add_signature(v0->key);
  d.add_signature(v1->key);
  // Only v0 overlaps nothing... v1 signed both too; restrict overlap to v0
  // by dropping v1 from one side.
  c.signatures.clear();
  c.add_signature(v0->key);
  c.add_signature(v1->key);
  d.signatures.clear();
  d.add_signature(v0->key);
  EXPECT_FALSE(world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                          encode(core::FraudProof{c, d}), TokenAmount())
                   .ok());
  EXPECT_EQ(world.sca_state().slash_records.size(), 1u);
}

TEST_F(CheckpointFixture, SlashRecordCarriesOffenceDetails) {
  auto a = make_signed(10, Cid(), {v0, v1});
  auto b = make_signed(10, Cid(), {v0, v2});
  b.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("fork"));
  b.signatures.clear();
  b.add_signature(v0->key);
  b.add_signature(v2->key);
  User& reporter = world.user("reporter");
  ASSERT_TRUE(world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                         encode(core::FraudProof{a, b}), TokenAmount())
                  .ok());
  const auto sca_st = world.sca_state();
  ASSERT_EQ(sca_st.slash_records.size(), 1u);
  const auto& rec = sca_st.slash_records[0];
  EXPECT_EQ(rec.subnet, subnet);
  EXPECT_EQ(rec.epoch, 10);
  EXPECT_EQ(rec.signer, v0->key.public_key());
  EXPECT_EQ(rec.burned, TokenAmount::whole(5));
  EXPECT_TRUE(sca_st.slashed(subnet, 10, v0->key.public_key()));
  EXPECT_FALSE(sca_st.slashed(subnet, 10, v1->key.public_key()));
  EXPECT_FALSE(sca_st.slashed(subnet, 20, v0->key.public_key()));
}

TEST_F(ActorsFixture, SlashClampsSigningThresholdToSurvivors) {
  // 3-of-3 policy; slashing one signer must clamp the threshold to 2-of-2
  // (scaled to the survivor count), not leave the subnet wedged.
  User& v0 = world.user("v0");
  User& v1 = world.user("v1");
  User& v2 = world.user("v2");
  Address sa = setup_subnet(default_params(/*threshold=*/3), {&v0, &v1, &v2},
                            TokenAmount::whole(5));
  const core::SubnetId subnet = core::SubnetId::root().child(sa);

  core::SignedCheckpoint a;
  a.checkpoint.source = subnet;
  a.checkpoint.epoch = 10;
  a.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("blk@10"));
  core::SignedCheckpoint b = a;
  b.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("fork"));
  a.add_signature(v0.key);
  a.add_signature(v1.key);
  b.add_signature(v0.key);
  b.add_signature(v2.key);

  User& reporter = world.user("reporter");
  ASSERT_TRUE(world.call(reporter, chain::kScaAddr, sca::kSubmitFraudProof,
                         encode(core::FraudProof{a, b}), TokenAmount())
                  .ok());
  const auto sa_st = world.sa_state(sa);
  ASSERT_EQ(sa_st.validators.size(), 2u);
  EXPECT_EQ(sa_st.params.checkpoint_policy.threshold, 2u);
  // 15 - 5 = 10 >= min_collateral: still active, and the survivors can
  // keep checkpointing under the clamped policy.
  ASSERT_EQ(world.sca_state().subnets.begin()->second.status,
            core::SubnetStatus::kActive);
  core::SignedCheckpoint next;
  next.checkpoint.source = subnet;
  next.checkpoint.epoch = 20;
  next.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("blk@20"));
  next.add_signature(v1.key);
  next.add_signature(v2.key);
  auto r = world.call(v1, sa, kSubmitCheckpoint, encode(next), TokenAmount());
  EXPECT_TRUE(r.ok()) << r.error;
}

// ----------------------------------------------------------- cross: SCA

struct CrossFixture : ActorsFixture {
  User* v0 = nullptr;
  Address sa;
  core::SubnetId child;

  void SetUp() override {
    v0 = &world.user("v0");
    sa = setup_subnet(default_params(), {v0}, TokenAmount::whole(10));
    child = core::SubnetId::root().child(sa);
  }
};

TEST_F(CrossFixture, FundCommitsTopDownWithNonceAndSupply) {
  User& alice = world.user("alice");
  actors::CrossParams p;
  p.dest = child;
  p.to = world.user("bob").addr;
  auto r = world.call(alice, chain::kScaAddr, sca::kFund, encode(p),
                      TokenAmount::whole(20));
  ASSERT_TRUE(r.ok()) << r.error;

  const auto st = world.sca_state();
  const auto& entry = st.subnets.begin()->second;
  EXPECT_EQ(entry.circulating_supply, TokenAmount::whole(20));
  EXPECT_EQ(entry.topdown_nonce, 1u);
  ASSERT_EQ(entry.topdown_queue.size(), 1u);
  EXPECT_EQ(entry.topdown_queue[0].nonce, 0u);
  EXPECT_EQ(entry.topdown_queue[0].msg.value, TokenAmount::whole(20));
  EXPECT_EQ(entry.topdown_queue[0].msg.from, alice.addr);

  // Funds are frozen in the SCA (collateral 10 + fund 20).
  EXPECT_EQ(world.balance(chain::kScaAddr), TokenAmount::whole(30));

  // Nonces increase monotonically per child.
  ASSERT_TRUE(world.call(alice, chain::kScaAddr, sca::kFund, encode(p),
                         TokenAmount::whole(1))
                  .ok());
  EXPECT_EQ(world.sca_state().subnets.begin()->second.topdown_queue[1].nonce,
            1u);
}

TEST_F(CrossFixture, FundToUnknownSubnetFails) {
  User& alice = world.user("alice");
  actors::CrossParams p;
  p.dest = core::SubnetId::root().child(Address::id(4242));
  p.to = alice.addr;
  auto r = world.call(alice, chain::kScaAddr, sca::kFund, encode(p),
                      TokenAmount::whole(1));
  EXPECT_FALSE(r.ok());
  // Failed fund must not leak value into the SCA.
  EXPECT_EQ(world.balance(chain::kScaAddr), TokenAmount::whole(10));
}

TEST_F(CrossFixture, FundToInactiveSubnetFails) {
  ASSERT_TRUE(world.call(*v0, sa, kLeave, {}, TokenAmount()).ok());
  User& alice = world.user("alice");
  actors::CrossParams p;
  p.dest = child;
  p.to = alice.addr;
  EXPECT_FALSE(world.call(alice, chain::kScaAddr, sca::kFund, encode(p),
                          TokenAmount::whole(1))
                   .ok());
}

TEST_F(CrossFixture, TopDownApplicationMintsAndOrders) {
  // Simulate the CHILD chain: its SCA applies a committed top-down msg.
  ChainWorld child_world(child);
  core::CrossMsg cross;
  cross.from_subnet = core::SubnetId::root();
  cross.to_subnet = child;
  cross.msg.from = world.user("alice").addr;
  cross.msg.to = child_world.user("bob", TokenAmount()).addr;
  cross.msg.value = TokenAmount::whole(20);
  cross.nonce = 0;

  auto r = child_world.implicit(chain::kScaAddr, sca::kApplyTopDown,
                                encode(cross), cross.msg.value);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(child_world.balance(cross.msg.to), TokenAmount::whole(20));
  EXPECT_EQ(child_world.sca_state().applied_topdown_nonce, 1u);

  // Replays and out-of-order nonces rejected.
  auto replay = child_world.implicit(chain::kScaAddr, sca::kApplyTopDown,
                                     encode(cross), cross.msg.value);
  EXPECT_FALSE(replay.ok());
}

TEST_F(CrossFixture, UsersCannotForgeImplicitMethods) {
  User& mallory = world.user("mallory");
  core::CrossMsg cross;
  cross.from_subnet = core::SubnetId::root();
  cross.to_subnet = core::SubnetId::root();
  cross.msg.to = mallory.addr;
  cross.msg.value = TokenAmount::whole(1000);
  auto r = world.call(mallory, chain::kScaAddr, sca::kApplyTopDown,
                      encode(cross), TokenAmount());
  EXPECT_EQ(r.exit, chain::ExitCode::kActorError);
}

TEST_F(CrossFixture, ReleaseBurnsAndBuffersBottomUp) {
  // Work in a CHILD chain world: release back to the root.
  ChainWorld cw(child);
  User& u = cw.user("carol");
  actors::CrossParams p;
  p.dest = core::SubnetId::root();
  p.to = world.user("alice").addr;
  auto r = cw.call(u, chain::kScaAddr, sca::kRelease, encode(p),
                   TokenAmount::whole(3));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(cw.balance(chain::kBurnAddr), TokenAmount::whole(3));
  const auto st = cw.sca_state();
  ASSERT_EQ(st.window_msgs.size(), 1u);
  EXPECT_EQ(st.window_msgs[0].to_subnet, core::SubnetId::root());
  EXPECT_EQ(st.window_msgs[0].msg.value, TokenAmount::whole(3));
}

TEST_F(CrossFixture, CutCheckpointBundlesWindow) {
  ChainWorld cw(child);
  User& u = cw.user("carol");
  actors::CrossParams p;
  p.dest = core::SubnetId::root();
  p.to = world.user("alice").addr;
  ASSERT_TRUE(cw.call(u, chain::kScaAddr, sca::kRelease, encode(p),
                      TokenAmount::whole(3))
                  .ok());
  ASSERT_TRUE(cw.call(u, chain::kScaAddr, sca::kRelease, encode(p),
                      TokenAmount::whole(4))
                  .ok());

  actors::CutParams cut;
  cut.epoch = 10;
  cut.proof = Cid::of(CidCodec::kBlock, to_bytes("blk10"));
  auto r = cw.implicit(chain::kScaAddr, sca::kCutCheckpoint, encode(cut),
                       TokenAmount());
  ASSERT_TRUE(r.ok()) << r.error;

  const auto st = cw.sca_state();
  ASSERT_TRUE(st.pending_checkpoint.has_value());
  const auto& cp = *st.pending_checkpoint;
  EXPECT_EQ(cp.source, child);
  EXPECT_EQ(cp.epoch, 10);
  ASSERT_EQ(cp.cross_meta.size(), 1u);  // both msgs to the same dest: 1 batch
  EXPECT_EQ(cp.cross_meta[0].value, TokenAmount::whole(7));
  EXPECT_EQ(cp.cross_meta[0].msg_count, 2u);
  EXPECT_TRUE(st.window_msgs.empty());
  // Registry can serve the batch for content resolution.
  const Bytes key(cp.cross_meta[0].msgs_cid.digest().begin(),
                  cp.cross_meta[0].msgs_cid.digest().end());
  EXPECT_TRUE(st.msg_registry.contains(key));
  // A second cut at the same epoch is rejected.
  EXPECT_FALSE(cw.implicit(chain::kScaAddr, sca::kCutCheckpoint, encode(cut),
                           TokenAmount())
                   .ok());
}

TEST_F(CrossFixture, RootCannotCutCheckpoints) {
  actors::CutParams cut;
  cut.epoch = 10;
  EXPECT_FALSE(world.implicit(chain::kScaAddr, sca::kCutCheckpoint,
                              encode(cut), TokenAmount())
                   .ok());
}

TEST_F(CrossFixture, BottomUpCommitReleaseAndFirewall) {
  // Fund the child so it has circulating supply 20.
  User& alice = world.user("alice");
  actors::CrossParams fund;
  fund.dest = child;
  fund.to = alice.addr;
  ASSERT_TRUE(world.call(alice, chain::kScaAddr, sca::kFund, encode(fund),
                         TokenAmount::whole(20))
                  .ok());

  // The child checkpoints a bottom-up batch worth 8 back to root.
  core::CrossMsgBatch batch;
  core::CrossMsg m;
  m.from_subnet = child;
  m.to_subnet = core::SubnetId::root();
  m.msg.from = world.user("carol").addr;
  m.msg.to = world.user("dave", TokenAmount()).addr;
  m.msg.value = TokenAmount::whole(8);
  batch.msgs.push_back(m);

  core::SignedCheckpoint sc;
  sc.checkpoint.source = child;
  sc.checkpoint.epoch = 10;
  sc.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("cblk"));
  core::CrossMsgMeta meta;
  meta.from = child;
  meta.to = core::SubnetId::root();
  meta.msgs_cid = batch.cid();
  meta.msg_count = 1;
  meta.value = TokenAmount::whole(8);
  sc.checkpoint.cross_meta.push_back(meta);
  sc.add_signature(v0->key);

  ASSERT_TRUE(world.call(*v0, sa, kSubmitCheckpoint, encode(sc), {}).ok());

  auto st = world.sca_state();
  EXPECT_EQ(st.subnets.begin()->second.circulating_supply,
            TokenAmount::whole(12));  // 20 - 8
  ASSERT_EQ(st.pending_bottomup.size(), 1u);
  EXPECT_EQ(st.pending_bottomup[0].nonce, 0u);

  // Execute the batch (normally proposed by the cross-msg pool).
  actors::ApplyBottomUpParams apply{0, batch};
  auto r = world.implicit(chain::kScaAddr, sca::kApplyBottomUp, encode(apply),
                          TokenAmount());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(world.balance(m.msg.to), TokenAmount::whole(8));
  EXPECT_EQ(world.sca_state().applied_bottomup_nonce, 1u);

  // Forged batch content is rejected (CID mismatch).
  actors::ApplyBottomUpParams forged{1, batch};
  forged.batch.msgs[0].msg.value = TokenAmount::whole(800);
  EXPECT_FALSE(world.implicit(chain::kScaAddr, sca::kApplyBottomUp,
                              encode(forged), TokenAmount())
                   .ok());
}

TEST_F(CrossFixture, FirewallRejectsOverdraw) {
  // Child supply is 5; a compromised child tries to extract 50.
  User& alice = world.user("alice");
  actors::CrossParams fund;
  fund.dest = child;
  fund.to = alice.addr;
  ASSERT_TRUE(world.call(alice, chain::kScaAddr, sca::kFund, encode(fund),
                         TokenAmount::whole(5))
                  .ok());

  core::SignedCheckpoint sc;
  sc.checkpoint.source = child;
  sc.checkpoint.epoch = 10;
  sc.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("evil"));
  core::CrossMsgMeta meta;
  meta.from = child;
  meta.to = core::SubnetId::root();
  meta.msgs_cid = Cid::of(CidCodec::kCrossMsgs, to_bytes("evil-batch"));
  meta.msg_count = 1;
  meta.value = TokenAmount::whole(50);  // exceeds supply!
  sc.checkpoint.cross_meta.push_back(meta);
  sc.add_signature(v0->key);

  auto r = world.call(*v0, sa, kSubmitCheckpoint, encode(sc), {});
  EXPECT_FALSE(r.ok());
  // Supply unchanged; nothing adopted.
  EXPECT_EQ(world.sca_state().subnets.begin()->second.circulating_supply,
            TokenAmount::whole(5));
  EXPECT_TRUE(world.sca_state().pending_bottomup.empty());
}

TEST_F(CrossFixture, SaveRecordsSnapshots) {
  User& u = world.user("alice");
  actors::SaveParams p{Cid::of(CidCodec::kStateRoot, to_bytes("root@5"))};
  ASSERT_TRUE(
      world.call(u, chain::kScaAddr, sca::kSave, encode(p), TokenAmount())
          .ok());
  const auto st = world.sca_state();
  ASSERT_EQ(st.snapshots.size(), 1u);
  EXPECT_EQ(st.snapshots[0].state_root, p.state_root);
}

// ------------------------------------------------------- atomic execution

struct AtomicFixture : ActorsFixture {
  User* u1 = nullptr;
  User* u2 = nullptr;
  core::SubnetId sub1;
  core::SubnetId sub2;
  std::vector<actors::AtomicParty> parties;
  std::vector<Cid> inputs;

  void SetUp() override {
    u1 = &world.user("u1");
    u2 = &world.user("u2");
    sub1 = core::SubnetId::root().child(Address::id(100));
    sub2 = core::SubnetId::root().child(Address::id(101));
    parties = {{sub1, u1->addr}, {sub2, u2->addr}};
    inputs = {Cid::of(CidCodec::kActorState, to_bytes("in1")),
              Cid::of(CidCodec::kActorState, to_bytes("in2"))};
  }

  std::uint64_t init_exec() {
    // Initiated via a cross-net message from u1's subnet (the common case:
    // parties live below the coordinator).
    core::CrossMsg cross;
    cross.from_subnet = sub1;
    cross.to_subnet = core::SubnetId::root();
    cross.msg.from = u1->addr;
    cross.msg.to = chain::kScaAddr;
    cross.msg.method = sca::kAtomicInit;
    cross.msg.params = encode(actors::AtomicInitParams{parties, inputs});
    cross.nonce = next_nonce_++;
    auto r = world.implicit(chain::kScaAddr, sca::kApplyTopDown, encode(cross),
                            TokenAmount());
    EXPECT_TRUE(r.ok()) << r.error;
    const auto st = world.sca_state();
    EXPECT_EQ(st.atomic_execs.size(), execs_seen_ + 1);
    ++execs_seen_;
    return st.atomic_execs.rbegin()->first;
  }

  chain::Receipt submit_via_cross(const core::SubnetId& sub, User& u,
                                  std::uint64_t id, const Cid& output) {
    core::CrossMsg cross;
    cross.from_subnet = sub;
    cross.to_subnet = core::SubnetId::root();
    cross.msg.from = u.addr;
    cross.msg.to = chain::kScaAddr;
    cross.msg.method = sca::kAtomicSubmit;
    cross.msg.params = encode(actors::AtomicSubmitParams{id, output});
    cross.nonce = next_nonce_++;
    return world.implicit(chain::kScaAddr, sca::kApplyTopDown, encode(cross),
                          TokenAmount());
  }

 private:
  std::uint64_t next_nonce_ = 0;
  std::size_t execs_seen_ = 0;
};

TEST_F(AtomicFixture, CommitWhenOutputsMatch) {
  // NOTE: these cross msgs arrive as *bottom-up* in reality; using the
  // top-down apply path here exercises the same deliver() logic without a
  // parent. The full bottom-up path is covered by the integration tests.
  const std::uint64_t id = init_exec();
  const Cid output = Cid::of(CidCodec::kActorState, to_bytes("out"));
  ASSERT_TRUE(submit_via_cross(sub1, *u1, id, output).ok());
  auto st = world.sca_state();
  EXPECT_EQ(st.atomic_execs.at(id).status, actors::AtomicStatus::kPending);

  ASSERT_TRUE(submit_via_cross(sub2, *u2, id, output).ok());
  st = world.sca_state();
  EXPECT_EQ(st.atomic_execs.at(id).status, actors::AtomicStatus::kCommitted);
}

TEST_F(AtomicFixture, MismatchedOutputsAbort) {
  const std::uint64_t id = init_exec();
  ASSERT_TRUE(submit_via_cross(sub1, *u1, id,
                               Cid::of(CidCodec::kActorState, to_bytes("a")))
                  .ok());
  ASSERT_TRUE(submit_via_cross(sub2, *u2, id,
                               Cid::of(CidCodec::kActorState, to_bytes("b")))
                  .ok());
  EXPECT_EQ(world.sca_state().atomic_execs.at(id).status,
            actors::AtomicStatus::kAborted);
}

TEST_F(AtomicFixture, NonPartyCannotSubmitOrAbort) {
  const std::uint64_t id = init_exec();
  User& mallory = world.user("mallory");
  auto r = submit_via_cross(sub1, mallory, id,
                            Cid::of(CidCodec::kActorState, to_bytes("x")));
  EXPECT_FALSE(r.ok());
  // Party identity includes the subnet: u1 submitting from the wrong subnet
  // is rejected too.
  EXPECT_FALSE(submit_via_cross(sub2, *u1, id,
                                Cid::of(CidCodec::kActorState, to_bytes("x")))
                   .ok());
}

TEST_F(AtomicFixture, AbortBeforeCommitWins) {
  const std::uint64_t id = init_exec();
  const Cid output = Cid::of(CidCodec::kActorState, to_bytes("out"));
  ASSERT_TRUE(submit_via_cross(sub1, *u1, id, output).ok());

  // u2 aborts instead of submitting.
  core::CrossMsg cross;
  cross.from_subnet = sub2;
  cross.to_subnet = core::SubnetId::root();
  cross.msg.from = u2->addr;
  cross.msg.to = chain::kScaAddr;
  cross.msg.method = sca::kAtomicAbort;
  cross.msg.params = encode(actors::AtomicAbortParams{id});
  cross.nonce = 2;
  ASSERT_TRUE(world
                  .implicit(chain::kScaAddr, sca::kApplyTopDown, encode(cross),
                            TokenAmount())
                  .ok());
  EXPECT_EQ(world.sca_state().atomic_execs.at(id).status,
            actors::AtomicStatus::kAborted);

  // Late submissions fail.
  EXPECT_FALSE(submit_via_cross(sub2, *u2, id, output).ok());
}

TEST_F(AtomicFixture, InitRequiresTwoPartiesAndMatchingInputs) {
  auto r1 = world.call(*u1, chain::kScaAddr, sca::kAtomicInit,
                       encode(actors::AtomicInitParams{{parties[0]}, {inputs[0]}}),
                       TokenAmount());
  EXPECT_FALSE(r1.ok());
  auto r2 = world.call(*u1, chain::kScaAddr, sca::kAtomicInit,
                       encode(actors::AtomicInitParams{parties, {inputs[0]}}),
                       TokenAmount());
  EXPECT_FALSE(r2.ok());
}


// ------------------------------------------------------------ state memos
// save_state keeps the state it encoded as the new blob's memo, and
// load_state/head reads copy that memo instead of decoding (DESIGN.md §12).
// These check the memo never drifts from the bytes it rides with.

/// The cross-net fixture under the suite name the CI stages select.
struct StateMemo : CrossFixture {};

TEST_F(StateMemo, MatchesFreshDecodeAfterEveryStep) {
  // A seeded mix of SCA, SA and KV operations on a root chain and one of
  // its children, successful and failing alike.
  ChainWorld cw(child);
  User& alice = world.user("alice");
  User& carol = cw.user("carol");
  std::vector<User*> joiners = {&world.user("j0"), &world.user("j1"),
                                &world.user("j2")};
  actors::ExecParams kv_exec;
  kv_exec.code = chain::kCodeKvApp;
  const auto dep = cw.call(carol, chain::kInitAddr, actors::init_method::kExec,
                           encode(kv_exec), TokenAmount());
  ASSERT_TRUE(dep.ok());
  const Address app = decode<Address>(dep.ret).value();

  std::mt19937_64 rng(0x3e30);
  std::uint64_t topdown_nonce = 0;
  chain::Epoch cut_epoch = 0;
  std::size_t memos_checked = 0;
  for (int step = 0; step < 200; ++step) {
    const auto amount = TokenAmount::whole(1 + rng() % 5);
    switch (rng() % 7) {
      case 0: {  // top-down fund on the root, applied on the child
        actors::CrossParams p;
        p.dest = child;
        p.to = carol.addr;
        if (world.call(alice, chain::kScaAddr, sca::kFund, encode(p), amount)
                .ok()) {
          core::CrossMsg cross;
          cross.from_subnet = core::SubnetId::root();
          cross.to_subnet = child;
          cross.msg.from = alice.addr;
          cross.msg.to = carol.addr;
          cross.msg.value = amount;
          cross.nonce = topdown_nonce++;
          EXPECT_TRUE(cw.implicit(chain::kScaAddr, sca::kApplyTopDown,
                                  encode(cross), amount)
                          .ok());
        }
        break;
      }
      case 1: {  // bottom-up release on the child (may lack funds)
        actors::CrossParams p;
        p.dest = core::SubnetId::root();
        p.to = alice.addr;
        (void)cw.call(carol, chain::kScaAddr, sca::kRelease, encode(p),
                      amount);
        break;
      }
      case 2: {  // checkpoint cut on the child; a repeated epoch fails
        actors::CutParams cut;
        cut.epoch = (rng() % 4 == 0) ? cut_epoch : cut_epoch + 10;
        cut.proof = Cid::of(CidCodec::kBlock,
                            to_bytes("blk" + std::to_string(cut.epoch)));
        if (cw.implicit(chain::kScaAddr, sca::kCutCheckpoint, encode(cut),
                        TokenAmount())
                .ok()) {
          cut_epoch = cut.epoch;
        }
        break;
      }
      case 3: {  // SA join (stake may be below the minimum)
        User& j = *joiners[rng() % joiners.size()];
        (void)world.call(j, sa, kJoin, join_params(j),
                         TokenAmount::whole(rng() % 8));
        break;
      }
      case 4: {  // SA leave (fails for non-validators)
        User& j = *joiners[rng() % joiners.size()];
        (void)world.call(j, sa, kLeave, {}, TokenAmount());
        break;
      }
      case 5: {  // fund toward a subnet that does not exist: fails
        actors::CrossParams p;
        p.dest = core::SubnetId::root().child(Address::id(4242));
        p.to = alice.addr;
        EXPECT_FALSE(world
                         .call(alice, chain::kScaAddr, sca::kFund, encode(p),
                               amount)
                         .ok());
        break;
      }
      default: {  // KV put / lock / unlock on the child
        const Bytes key = to_bytes("k" + std::to_string(rng() % 3));
        const chain::MethodNum m =
            std::array{kv::kPut, kv::kLock, kv::kUnlock}[rng() % 3];
        (void)cw.call(carol, app, m,
                      encode(actors::KvParams{key, to_bytes("v")}), {});
        break;
      }
    }
    SCOPED_TRACE("step " + std::to_string(step));
    memos_checked += check_memos(world.tree()) + check_memos(cw.tree());
    if (::testing::Test::HasFailure()) return;
  }
  // Both SCAs wrote at least once, so their blobs carry memos.
  EXPECT_NE(world.tree().get(chain::kScaAddr)->state.memo<actors::ScaState>(),
            nullptr);
  EXPECT_NE(cw.tree().get(chain::kScaAddr)->state.memo<actors::ScaState>(),
            nullptr);
  EXPECT_GT(memos_checked, 400u);
}

TEST_F(StateMemo, FailedCallKeepsTheBlobAndSaveReplacesIt) {
  // A read-only call leaves the SCA blob (and its memo) untouched; a write
  // installs a new blob whose memo is the state it encoded.
  const chain::StateBlob before = world.tree().get(chain::kScaAddr)->state;
  ASSERT_NE(before.memo<actors::ScaState>(), nullptr);
  User& alice = world.user("alice");
  actors::CrossParams bad;
  bad.dest = core::SubnetId::root().child(Address::id(4242));
  bad.to = alice.addr;
  ASSERT_FALSE(world.call(alice, chain::kScaAddr, sca::kFund, encode(bad),
                          TokenAmount::whole(1))
                   .ok());
  EXPECT_TRUE(world.tree().get(chain::kScaAddr)->state.shares(before));

  actors::CrossParams good;
  good.dest = child;
  good.to = alice.addr;
  ASSERT_TRUE(world.call(alice, chain::kScaAddr, sca::kFund, encode(good),
                         TokenAmount::whole(2))
                  .ok());
  const chain::StateBlob& after = world.tree().get(chain::kScaAddr)->state;
  EXPECT_FALSE(after.shares(before));
  const auto memo = after.memo<actors::ScaState>();
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(memo->subnets.begin()->second.topdown_nonce, 1u);
  EXPECT_EQ(*memo, world.sca_state());
}

}  // namespace
}  // namespace hc::testing

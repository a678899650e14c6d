// Unit tests for the chain substrate: messages, blocks, state tree,
// mempool, chain store, and the executor/VM (gas, nonces, reverts,
// internal sends, minting rules), plus the StateCommitment differential
// suite pitting the incremental Merkle commitment against a from-scratch
// rebuild (DESIGN.md §12).
#include <gtest/gtest.h>

#include <random>

#include "actors/util.hpp"
#include "chain/actor.hpp"
#include "chain/block.hpp"
#include "chain/chainstore.hpp"
#include "chain/executor.hpp"
#include "chain/mempool.hpp"
#include "chain/message.hpp"
#include "chain/state.hpp"
#include "crypto/schnorr.hpp"

namespace hc::chain {
namespace {

constexpr CodeId kCounterCode = 50;
constexpr MethodNum kIncrement = 1;
constexpr MethodNum kFail = 2;
constexpr MethodNum kIncrementViaPeer = 3;
constexpr MethodNum kBurnGas = 4;
constexpr MethodNum kEmit = 5;
constexpr MethodNum kRecurse = 6;

/// Minimal stateful actor used to exercise the VM: a u64 counter.
class CounterActor final : public ActorLogic {
 public:
  Result<Bytes> invoke(Runtime& rt, MethodNum method,
                       const Bytes& params) override {
    switch (method) {
      case kIncrement: {
        HC_TRY(state, rt.get_state());
        std::uint64_t count = 0;
        if (!state.empty()) {
          Decoder d(state.view());
          HC_TRY(c, d.varint());
          count = c;
        }
        ++count;
        Encoder e;
        e.varint(count);
        HC_TRY_STATUS(rt.set_state(e.data()));
        Encoder ret;
        ret.varint(count);
        return std::move(ret).take();
      }
      case kFail: {
        // Mutate state, then fail: the mutation must be rolled back.
        HC_TRY_STATUS(rt.set_state(to_bytes("garbage")));
        return Error(Errc::kInvalidArgument, "intentional failure");
      }
      case kIncrementViaPeer: {
        // params = encoded peer address; forwards an increment.
        Decoder d(params);
        HC_TRY(peer, d.obj<Address>());
        return rt.send(peer, kIncrement, {}, TokenAmount());
      }
      case kBurnGas: {
        HC_TRY_STATUS(rt.charge_gas(1000000));
        return Bytes{};
      }
      case kEmit: {
        rt.emit_event("test/event", to_bytes("payload"));
        return Bytes{};
      }
      case kRecurse: {
        // Infinite self-recursion: the VM's call-depth guard must stop it.
        return rt.send(rt.self(), kRecurse, {}, TokenAmount());
      }
      default:
        return Error(Errc::kInvalidArgument, "unknown method");
    }
  }
};

struct ChainFixture : ::testing::Test {
  ActorRegistry registry;
  GasSchedule schedule;
  crypto::KeyPair alice = crypto::KeyPair::from_label("alice");
  crypto::KeyPair bob = crypto::KeyPair::from_label("bob");
  Address alice_addr = Address::key(alice.public_key().to_bytes());
  Address bob_addr = Address::key(bob.public_key().to_bytes());
  StateTree tree;
  ExecutionContext ctx;

  ChainFixture() {
    registry.install(kCounterCode, std::make_unique<CounterActor>());
    ActorEntry account;
    account.code = kCodeAccount;
    account.balance = TokenAmount::whole(100);
    tree.set(alice_addr, account);
    ActorEntry counter;
    counter.code = kCounterCode;
    tree.set(Address::id(200), counter);
    ctx.height = 5;
    ctx.miner = Address::id(300);
  }

  Executor make_executor() { return Executor(registry, schedule); }

  SignedMessage make_msg(MethodNum method, Bytes params, TokenAmount value,
                         std::uint64_t nonce, const Address& to) {
    Message m;
    m.from = alice_addr;
    m.to = to;
    m.nonce = nonce;
    m.value = value;
    m.method = method;
    m.params = std::move(params);
    m.gas_limit = 1u << 20;
    m.gas_price = TokenAmount::atto(1);
    return SignedMessage::sign(std::move(m), alice);
  }
};

// ------------------------------------------------------- state memos

constexpr CodeId kTallyCode = 51;
constexpr MethodNum kTallyBump = 1;
constexpr MethodNum kTallySaveThenFail = 2;
constexpr MethodNum kTallyForwardAndSwallow = 3;

/// A u64 tally persisted through actors::load_state/save_state, so its
/// blobs carry memos.
struct Tally {
  std::uint64_t count = 0;
  void encode_to(Encoder& e) const { e.varint(count); }
  [[nodiscard]] static Result<Tally> decode_from(Decoder& d) {
    HC_TRY(count, d.varint());
    return Tally{count};
  }
  bool operator==(const Tally&) const = default;
};

class TallyActor final : public ActorLogic {
 public:
  Result<Bytes> invoke(Runtime& rt, MethodNum method,
                       const Bytes& params) override {
    switch (method) {
      case kTallyBump: {
        HC_TRY(state, actors::load_state<Tally>(rt));
        ++state.count;
        HC_TRY_STATUS(actors::save_state(rt, state));
        return Bytes{};
      }
      case kTallySaveThenFail: {
        // A successful save, then a failure: both must be rolled back.
        HC_TRY(state, actors::load_state<Tally>(rt));
        state.count += 100;
        HC_TRY_STATUS(actors::save_state(rt, state));
        return Error(Errc::kInvalidArgument, "intentional failure");
      }
      case kTallyForwardAndSwallow: {
        // Nested send to a peer that fails; this actor still succeeds.
        Decoder d(params);
        HC_TRY(peer, d.obj<Address>());
        EXPECT_FALSE(rt.send(peer, kTallySaveThenFail, {}, TokenAmount()).ok());
        return Bytes{};
      }
      default:
        return Error(Errc::kInvalidArgument, "unknown method");
    }
  }
};

/// Chain fixture plus two tally actors at ids 210 and 211.
struct StateMemo : ChainFixture {
  const Address a = Address::id(210);
  const Address b = Address::id(211);

  StateMemo() {
    registry.install(kTallyCode, std::make_unique<TallyActor>());
    ActorEntry tally;
    tally.code = kTallyCode;
    tree.set(a, tally);
    tree.set(b, tally);
  }

  Receipt call(MethodNum method, const Address& to, Bytes params = {}) {
    auto exec = make_executor();
    return exec.apply(
        tree, make_msg(method, std::move(params), TokenAmount(), nonce++, to),
        ctx);
  }

  std::uint64_t nonce = 0;
};

TEST_F(StateMemo, SaveAttachesTheEncodedStateAsMemo) {
  ASSERT_TRUE(call(kTallyBump, b).ok());
  ASSERT_TRUE(call(kTallyBump, b).ok());
  const StateBlob& blob = tree.get(b)->state;
  const auto memo = blob.memo<Tally>();
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(*memo, Tally{2});
  EXPECT_EQ(decode<Tally>(blob.view()).value(), *memo);
  EXPECT_EQ(blob.bytes(), encode(Tally{2}));
  // A memo answers only for its own type.
  EXPECT_EQ(blob.memo<std::uint64_t>(), nullptr);
}

TEST_F(StateMemo, NestedSendFailureRestoresBlobAndMemo) {
  ASSERT_TRUE(call(kTallyBump, b).ok());
  const StateBlob before = tree.get(b)->state;
  const auto memo_before = before.memo<Tally>();
  ASSERT_NE(memo_before, nullptr);

  Encoder peer;
  peer.obj(b);
  ASSERT_TRUE(call(kTallyForwardAndSwallow, a, peer.data()).ok());
  // b saved Tally{101} and then failed: its previous blob is back, memo
  // included, not merely equal bytes.
  EXPECT_TRUE(tree.get(b)->state.shares(before));
  EXPECT_EQ(tree.get(b)->state.memo<Tally>(), memo_before);

  // The same holds when the failing call is the top-level message.
  EXPECT_FALSE(call(kTallySaveThenFail, b).ok());
  EXPECT_TRUE(tree.get(b)->state.shares(before));
  ASSERT_TRUE(call(kTallyBump, b).ok());
  EXPECT_EQ(*tree.get(b)->state.memo<Tally>(), Tally{2});
}

TEST_F(StateMemo, TreeCopySharesBlobsNotBytes) {
  ASSERT_TRUE(call(kTallyBump, a).ok());
  ASSERT_TRUE(call(kTallyBump, b).ok());
  const StateTree copy = tree.snapshot();
  std::size_t shared = 0;
  for (const auto& [addr, entry] : tree) {
    const ActorEntry* other = copy.get(addr);
    ASSERT_NE(other, nullptr);
    EXPECT_TRUE(other->state.shares(entry.state)) << addr.to_string();
    if (!entry.state.empty()) {
      EXPECT_EQ(other->state.bytes().data(), entry.state.bytes().data());
      ++shared;
    }
  }
  EXPECT_EQ(shared, 2u);
  EXPECT_EQ(copy.get(a)->state.memo<Tally>(), tree.get(a)->state.memo<Tally>());
}

TEST_F(StateMemo, GoldenLeafBytesRootAndMemBytes) {
  // A fixed tree mixing empty, raw and memo-carrying state. Commitments and
  // the logical footprint depend on the state bytes alone: the golden
  // values hold whether or not a blob carries a memo or is shared.
  StateTree fixed;
  for (std::uint64_t i = 0; i < 20; ++i) {
    ActorEntry e;
    e.code = 1 + i % 3;
    e.balance = TokenAmount::whole(i);
    e.nonce = i;
    switch (i % 4) {
      case 0:
        break;
      case 1:
        e.state = to_bytes("s" + std::to_string(i));
        break;
      case 2:
        e.state = actors::state_blob(Tally{i});
        break;
      default:
        e.state = Bytes(i * 7, static_cast<std::uint8_t>(i));
        break;
    }
    fixed.set(Address::id(100 + i), e);
  }
  fixed.journal_reset();
  Sha256 leaves;
  for (const auto& [addr, entry] : fixed) {
    leaves.update(StateTree::leaf_bytes(addr, entry));
  }
  EXPECT_EQ(to_hex(digest_view(leaves.finalize())),
            "fbb4c110a34ef704d2d0e18926dd17f9dcd964a10c058eff25501d668e86d27f");
  EXPECT_EQ(fixed.mem_bytes(), 3922u);
  EXPECT_EQ(fixed.flush().to_hex(),
            "f94091a21c4ca2c77cd4118b2f60f6bdc43252ac3d888955de27aef17329be7f");
  EXPECT_EQ(fixed.mem_bytes(), 5202u);

  // Journal priors count too.
  ActorEntry e = *fixed.get(Address::id(105));
  e.state = actors::state_blob(Tally{77});
  fixed.set(Address::id(105), e);
  fixed.remove(Address::id(110));
  EXPECT_EQ(fixed.mem_bytes(), 5443u);
  EXPECT_EQ(fixed.flush().to_hex(),
            "bbba5fdd2943b7f2a80745286fcc87303d10c4f6f24caa0b294a1cd292416a37");
  EXPECT_EQ(fixed.mem_bytes(), 5235u);
}

// ------------------------------------------------------------ encoding

TEST(MessageCodec, RoundTrip) {
  Message m;
  m.from = Address::id(5);
  m.to = Address::id(6);
  m.nonce = 9;
  m.value = TokenAmount::whole(2);
  m.method = 3;
  m.params = to_bytes("params");
  m.gas_limit = 777;
  m.gas_price = TokenAmount::atto(42);
  auto out = decode<Message>(encode(m));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), m);
  EXPECT_EQ(out.value().cid(), m.cid());
}

TEST(MessageCodec, SignedRoundTripAndVerify) {
  const auto kp = crypto::KeyPair::from_label("signer");
  Message m;
  m.from = Address::key(kp.public_key().to_bytes());
  m.to = Address::id(7);
  auto sm = SignedMessage::sign(m, kp);
  EXPECT_TRUE(sm.verify());
  auto out = decode<SignedMessage>(encode(sm));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().verify());
}

TEST(MessageCodec, VerifyCatchesFromSpoofing) {
  const auto kp = crypto::KeyPair::from_label("signer");
  Message m;
  m.from = Address::id(123);  // not derived from the key
  auto sm = SignedMessage::sign(m, kp);
  EXPECT_FALSE(sm.verify());
}

TEST(BlockCodec, RoundTripWithBothMessageKinds) {
  const auto kp = crypto::KeyPair::from_label("k");
  Block b;
  b.header.miner = Address::id(1);
  b.header.height = 3;
  b.header.ticket = to_bytes("ticket");
  Message user;
  user.from = Address::key(kp.public_key().to_bytes());
  b.messages.push_back(SignedMessage::sign(user, kp));
  Message cross;
  cross.from = kSystemAddr;
  cross.value = TokenAmount::whole(1);
  b.cross_messages.push_back(cross);
  b.header.msgs_root = b.compute_msgs_root();
  auto out = decode<Block>(encode(b));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), b);
}

// ------------------------------------------------------------ state tree

TEST(StateTreeOps, FlushIsDeterministicAndOrderIndependent) {
  StateTree a;
  StateTree b;
  ActorEntry e1{kCodeAccount, TokenAmount::whole(1), 0, {}};
  ActorEntry e2{kCodeAccount, TokenAmount::whole(2), 0, {}};
  a.set(Address::id(1), e1);
  a.set(Address::id(2), e2);
  b.set(Address::id(2), e2);  // reversed insertion order
  b.set(Address::id(1), e1);
  EXPECT_EQ(a.flush(), b.flush());
}

TEST(StateTreeOps, FlushChangesWithState) {
  StateTree t;
  t.set(Address::id(1), ActorEntry{kCodeAccount, TokenAmount::whole(1), 0, {}});
  const Cid before = t.flush();
  t.get_or_create(Address::id(1)).balance += TokenAmount::atto(1);
  EXPECT_NE(before, t.flush());
}

TEST(StateTreeOps, SnapshotRevert) {
  StateTree t;
  t.set(Address::id(1), ActorEntry{kCodeAccount, TokenAmount::whole(5), 0, {}});
  StateTree snap = t.snapshot();
  t.get_or_create(Address::id(1)).balance = TokenAmount();
  t.set(Address::id(2), ActorEntry{});
  t = std::move(snap);
  EXPECT_EQ(t.get(Address::id(1))->balance, TokenAmount::whole(5));
  EXPECT_FALSE(t.has(Address::id(2)));
}

TEST(StateTreeOps, TotalBalanceSums) {
  StateTree t;
  t.set(Address::id(1), ActorEntry{kCodeAccount, TokenAmount::whole(3), 0, {}});
  t.set(Address::id(2), ActorEntry{kCodeAccount, TokenAmount::whole(4), 0, {}});
  EXPECT_EQ(t.total_balance(), TokenAmount::whole(7));
}

TEST(StateTreeOps, CodecRoundTrip) {
  StateTree t;
  t.set(Address::id(1),
        ActorEntry{kCodeSca, TokenAmount::whole(9), 2, to_bytes("s")});
  auto out = decode<StateTree>(encode(t));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().flush(), t.flush());
}

// ----------------------------------------- incremental state commitment
//
// Differential suite (DESIGN.md §12): every root the incremental path
// produces must be byte-identical to a from-scratch rebuild — the seed's
// commitment algorithm, re-run with no cache anywhere.

/// From-scratch reference: encode every leaf in address order and
/// Merkle-hash the lot.
Cid reference_root(const StateTree& t) {
  std::vector<Bytes> leaves;
  for (const auto& [addr, entry] : t) {
    leaves.push_back(StateTree::leaf_bytes(addr, entry));
  }
  return Cid(CidCodec::kStateRoot, crypto::MerkleTree::root_of(leaves));
}

TokenAmount folded_total(const StateTree& t) {
  TokenAmount total;
  for (const auto& [addr, entry] : t) total += entry.balance;
  return total;
}

ActorEntry random_entry(std::mt19937& rng) {
  ActorEntry e;
  e.code = kCodeAccount;
  e.balance = TokenAmount::atto(static_cast<std::int64_t>(rng() % 1000000));
  e.nonce = rng() % 16;
  e.state = to_bytes("s" + std::to_string(rng() % 97));
  return e;
}

TEST(StateCommitment, DifferentialRandomOps) {
  std::mt19937 rng(20260807);
  StateTree t;
  for (int i = 0; i < 64; ++i) {
    t.set(Address::id(rng() % 512), random_entry(rng));
  }
  for (int step = 0; step < 200; ++step) {
    const auto op = rng() % 100;
    if (op < 35) {
      t.set(Address::id(rng() % 512), random_entry(rng));
    } else if (op < 55) {
      t.get_or_create(Address::id(rng() % 512)).balance +=
          TokenAmount::atto(static_cast<std::int64_t>(1 + rng() % 50));
    } else if (op < 70) {
      t.remove(Address::id(rng() % 512));  // may be a no-op
    } else if (op < 85) {
      // A burst of mutations rolled back through the journal must land the
      // tree exactly where it was — including when a flush() happens
      // between the mark and the revert.
      const Cid before = t.flush();
      const StateTree::JournalMark mark = t.journal_mark();
      for (int j = 0; j < 5; ++j) {
        t.set(Address::id(rng() % 512), random_entry(rng));
      }
      t.remove(Address::id(rng() % 512));
      if (rng() % 2 == 0) (void)t.flush();
      t.journal_revert(mark);
      ASSERT_EQ(t.flush(), before) << "journal revert diverged at step "
                                   << step;
    } else {
      // Deep-copy snapshot, moved back in place.
      StateTree snap = t.snapshot();
      for (int j = 0; j < 3; ++j) {
        t.set(Address::id(rng() % 512), random_entry(rng));
      }
      t = std::move(snap);
    }
    const Cid root = t.flush();
    ASSERT_EQ(root, reference_root(t)) << "root diverged at step " << step;
    ASSERT_EQ(t.total_balance(), folded_total(t))
        << "running total diverged at step " << step;
    if (t.actor_count() > 0) {
      const auto it =
          std::next(t.begin(), static_cast<long>(rng() % t.actor_count()));
      auto proof = t.prove(it->first);
      ASSERT_TRUE(proof.ok());
      ASSERT_TRUE(
          StateTree::verify_entry(root, it->first, it->second, proof.value()))
          << "proof failed at step " << step;
    }
  }
}

TEST(StateCommitment, CleanFlushIsACacheHit) {
  StateTree t;
  for (int i = 0; i < 32; ++i) {
    t.set(Address::id(i), ActorEntry{kCodeAccount, TokenAmount::whole(1), 0, {}});
  }
  const Cid root = t.flush();
  const auto before = t.commit_stats();
  EXPECT_EQ(t.flush(), root);
  EXPECT_EQ(t.flush(), root);
  const auto& after = t.commit_stats();
  EXPECT_EQ(after.flush_cache_hits, before.flush_cache_hits + 2);
  EXPECT_EQ(after.leaf_rehashes, before.leaf_rehashes);
  EXPECT_EQ(after.node_hashes, before.node_hashes);
}

// Acceptance criterion: flushing a tree with k dirty leaves out of N costs
// exactly k leaf rehashes and at most k*log2(N) interior-node hashes.
TEST(StateCommitment, DirtyFlushCostIsKLogN) {
  constexpr std::size_t kActors = 1024;  // log2 = 10 interior levels
  constexpr std::size_t kDirty = 8;
  StateTree t;
  for (std::size_t i = 0; i < kActors; ++i) {
    t.set(Address::id(i), ActorEntry{kCodeAccount, TokenAmount::whole(1), 0, {}});
  }
  (void)t.flush();
  const auto before = t.commit_stats();
  for (std::size_t i = 0; i < kDirty; ++i) {
    t.get_or_create(Address::id(i * 100)).balance += TokenAmount::atto(1);
  }
  EXPECT_EQ(t.dirty_count(), kDirty);
  const Cid root = t.flush();
  const auto& after = t.commit_stats();
  EXPECT_EQ(after.leaf_rehashes - before.leaf_rehashes, kDirty);
  EXPECT_LE(after.node_hashes - before.node_hashes, kDirty * 10);
  EXPECT_GT(after.node_hashes - before.node_hashes, 0u);
  EXPECT_EQ(root, reference_root(t));
}

// Membership changes rebuild the interior levels but must not re-encode
// clean leaves: inserting one actor and removing another out of N costs
// exactly one leaf rehash.
TEST(StateCommitment, MembershipChangeReusesCleanDigests) {
  StateTree t;
  for (std::size_t i = 0; i < 256; ++i) {
    t.set(Address::id(i * 2), ActorEntry{kCodeAccount, TokenAmount::whole(1), 0, {}});
  }
  (void)t.flush();
  const auto before = t.commit_stats();
  t.set(Address::id(101), ActorEntry{kCodeAccount, TokenAmount::whole(7), 0, {}});
  t.remove(Address::id(200));
  const Cid root = t.flush();
  const auto& after = t.commit_stats();
  EXPECT_EQ(after.leaf_rehashes - before.leaf_rehashes, 1u);
  EXPECT_EQ(root, reference_root(t));
}

TEST(StateCommitment, SnapshotCopyInheritsCacheWithFreshStats) {
  StateTree t;
  for (int i = 0; i < 16; ++i) {
    t.set(Address::id(i), ActorEntry{kCodeAccount, TokenAmount::whole(2), 0, {}});
  }
  const Cid root = t.flush();
  StateTree snap = t.snapshot();
  // Copies start with zeroed stats (per-block delta scraping relies on it)
  // but carry the commitment cache: their first clean flush is a hit.
  EXPECT_EQ(snap.commit_stats().flushes, 0u);
  EXPECT_EQ(snap.flush(), root);
  EXPECT_EQ(snap.commit_stats().flush_cache_hits, 1u);
  EXPECT_EQ(snap.commit_stats().leaf_rehashes, 0u);
  EXPECT_EQ(snap.journal_depth(), 0u);
}

TEST(StateCommitment, ProveReusesCachedTree) {
  StateTree t;
  for (int i = 0; i < 33; ++i) {  // odd count: exercises promoted nodes
    t.set(Address::id(i), ActorEntry{kCodeAccount, TokenAmount::whole(1),
                                     static_cast<std::uint64_t>(i), {}});
  }
  const Cid root = t.flush();
  const auto before = t.commit_stats();
  for (int i = 0; i < 33; ++i) {
    auto proof = t.prove(Address::id(i));
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(StateTree::verify_entry(root, Address::id(i),
                                        *t.get(Address::id(i)), proof.value()));
  }
  // Proving from a clean tree does no hashing beyond the cached levels.
  EXPECT_EQ(t.commit_stats().leaf_rehashes, before.leaf_rehashes);
  EXPECT_EQ(t.commit_stats().node_hashes, before.node_hashes);
  EXPECT_FALSE(t.prove(Address::id(999)).ok());
}

TEST(StateCommitment, NestedJournalMarksRevertIndependently) {
  StateTree t;
  t.set(Address::id(1), ActorEntry{kCodeAccount, TokenAmount::whole(5), 0, {}});
  t.journal_reset();
  const Cid base = t.flush();

  const auto outer = t.journal_mark();
  t.get_or_create(Address::id(1)).balance = TokenAmount::whole(6);
  const auto inner = t.journal_mark();
  t.set(Address::id(2), ActorEntry{kCodeAccount, TokenAmount::whole(1), 0, {}});
  t.journal_revert(inner);  // inner send failed
  EXPECT_FALSE(t.has(Address::id(2)));
  EXPECT_EQ(t.get(Address::id(1))->balance, TokenAmount::whole(6));
  t.journal_revert(outer);  // outer message failed too
  EXPECT_EQ(t.get(Address::id(1))->balance, TokenAmount::whole(5));
  EXPECT_EQ(t.flush(), base);
  EXPECT_GE(t.commit_stats().journal_reverts, 2u);
}

// ------------------------------------------------------------ executor

TEST_F(ChainFixture, BareTransferMovesValue) {
  auto exec = make_executor();
  auto sm = make_msg(0, {}, TokenAmount::whole(10), 0, bob_addr);
  Receipt r = exec.apply(tree, sm, ctx);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(tree.get(bob_addr)->balance, TokenAmount::whole(10));
  EXPECT_EQ(tree.get(bob_addr)->code, kCodeAccount);  // auto-created
  EXPECT_GT(r.gas_used, 0u);
}

TEST_F(ChainFixture, FeesFlowToMiner) {
  auto exec = make_executor();
  const TokenAmount before = tree.get(alice_addr)->balance;
  auto sm = make_msg(0, {}, TokenAmount::whole(1), 0, bob_addr);
  Receipt r = exec.apply(tree, sm, ctx);
  ASSERT_TRUE(r.ok());
  const TokenAmount fee = TokenAmount::atto(1) * r.gas_used;
  EXPECT_EQ(tree.get(ctx.miner)->balance, fee);
  EXPECT_EQ(tree.get(alice_addr)->balance,
            before - TokenAmount::whole(1) - fee);
}

TEST_F(ChainFixture, ActorMethodMutatesState) {
  auto exec = make_executor();
  auto sm = make_msg(kIncrement, {}, TokenAmount(), 0, Address::id(200));
  Receipt r = exec.apply(tree, sm, ctx);
  ASSERT_TRUE(r.ok()) << r.error;
  Decoder d(r.ret);
  EXPECT_EQ(d.varint().value(), 1u);
  // Second call increments again.
  auto sm2 = make_msg(kIncrement, {}, TokenAmount(), 1, Address::id(200));
  Receipt r2 = exec.apply(tree, sm2, ctx);
  ASSERT_TRUE(r2.ok());
  Decoder d2(r2.ret);
  EXPECT_EQ(d2.varint().value(), 2u);
}

TEST_F(ChainFixture, FailedActorCallRollsBackState) {
  auto exec = make_executor();
  auto sm = make_msg(kFail, {}, TokenAmount(), 0, Address::id(200));
  Receipt r = exec.apply(tree, sm, ctx);
  EXPECT_EQ(r.exit, ExitCode::kActorError);
  EXPECT_TRUE(tree.get(Address::id(200))->state.empty());  // rolled back
  // Nonce advanced and fee charged despite the failure.
  EXPECT_EQ(tree.get(alice_addr)->nonce, 1u);
  EXPECT_GT(r.gas_used, 0u);
}

TEST_F(ChainFixture, WrongNonceRejected) {
  auto exec = make_executor();
  auto sm = make_msg(0, {}, TokenAmount::whole(1), 7, bob_addr);
  Receipt r = exec.apply(tree, sm, ctx);
  EXPECT_EQ(r.exit, ExitCode::kSysInvalidNonce);
  EXPECT_EQ(tree.get(alice_addr)->nonce, 0u);  // unchanged
}

TEST_F(ChainFixture, UnknownSenderRejected) {
  auto exec = make_executor();
  Message m;
  m.from = bob_addr;  // bob has no account yet
  m.to = alice_addr;
  m.gas_limit = 1u << 20;
  auto sm = SignedMessage::sign(m, bob);
  Receipt r = exec.apply(tree, sm, ctx);
  EXPECT_EQ(r.exit, ExitCode::kSysInsufficientFunds);
}

TEST_F(ChainFixture, InsufficientValueReverts) {
  auto exec = make_executor();
  auto sm = make_msg(0, {}, TokenAmount::whole(1000), 0, bob_addr);
  Receipt r = exec.apply(tree, sm, ctx);
  EXPECT_EQ(r.exit, ExitCode::kSysInsufficientFunds);
  EXPECT_FALSE(tree.has(bob_addr));
  // Nonce still advanced (message was chargeable).
  EXPECT_EQ(tree.get(alice_addr)->nonce, 1u);
}

TEST_F(ChainFixture, OutOfGasReverts) {
  auto exec = make_executor();
  Message m;
  m.from = alice_addr;
  m.to = Address::id(200);
  m.method = kBurnGas;
  m.gas_limit = 5000;  // below kBurnGas's 1M charge
  m.gas_price = TokenAmount::atto(1);
  auto sm = SignedMessage::sign(m, alice);
  Receipt r = exec.apply(tree, sm, ctx);
  EXPECT_EQ(r.exit, ExitCode::kSysOutOfGas);
  EXPECT_EQ(r.gas_used, 5000u);  // capped at limit
}

TEST_F(ChainFixture, TamperedSignatureRejected) {
  auto exec = make_executor();
  auto sm = make_msg(0, {}, TokenAmount::whole(1), 0, bob_addr);
  sm.message.value = TokenAmount::whole(50);  // tamper after signing
  Receipt r = exec.apply(tree, sm, ctx);
  EXPECT_EQ(r.exit, ExitCode::kSysInvalidSignature);
}

TEST_F(ChainFixture, VerifyBlockFlagsEachMessage) {
  auto exec = make_executor();
  Block block;
  block.header.height = ctx.height;
  block.header.miner = ctx.miner;
  block.messages.push_back(make_msg(0, {}, TokenAmount::whole(1), 0, bob_addr));
  // Valid signature over a message that was changed after signing.
  block.messages.push_back(make_msg(0, {}, TokenAmount::whole(1), 1, bob_addr));
  block.messages.back().message.value = TokenAmount::whole(50);
  // Valid signature by bob over a message whose sender is alice's address.
  Message m;
  m.from = alice_addr;
  m.to = bob_addr;
  m.nonce = 1;
  m.gas_limit = 1u << 20;
  m.gas_price = TokenAmount::atto(1);
  block.messages.push_back(SignedMessage::sign(m, bob));

  EXPECT_EQ(exec.verify_block(block), (std::vector<char>{1, 0, 0}));
  const std::vector<Receipt> receipts = exec.apply_block(tree, block);
  ASSERT_EQ(receipts.size(), 3u);
  EXPECT_EQ(receipts[0].exit, ExitCode::kOk);
  EXPECT_EQ(receipts[1].exit, ExitCode::kSysInvalidSignature);
  EXPECT_EQ(receipts[2].exit, ExitCode::kSysInvalidSignature);
}

TEST_F(ChainFixture, InternalSendReachesPeerActor) {
  auto exec = make_executor();
  // Deploy a second counter and call it through the first.
  ActorEntry counter;
  counter.code = kCounterCode;
  tree.set(Address::id(201), counter);
  Encoder params;
  params.obj(Address::id(201));
  auto sm = make_msg(kIncrementViaPeer, params.data(), TokenAmount(), 0,
                     Address::id(200));
  Receipt r = exec.apply(tree, sm, ctx);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(tree.get(Address::id(201))->state.empty());
  EXPECT_TRUE(tree.get(Address::id(200))->state.empty());
}

TEST_F(ChainFixture, RecursionBombHitsDepthGuard) {
  auto exec = make_executor();
  auto sm = make_msg(kRecurse, {}, TokenAmount(), 0, Address::id(200));
  Receipt r = exec.apply(tree, sm, ctx);
  EXPECT_FALSE(r.ok());
  // The guard fires before gas runs out here; either way the message must
  // fail cleanly and roll back.
  EXPECT_TRUE(tree.get(Address::id(200))->state.empty());
}

TEST_F(ChainFixture, EventsSurfaceInReceipt) {
  auto exec = make_executor();
  auto sm = make_msg(kEmit, {}, TokenAmount(), 0, Address::id(200));
  Receipt r = exec.apply(tree, sm, ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].kind, "test/event");
}

TEST_F(ChainFixture, ImplicitMessageMintsFromSystem) {
  auto exec = make_executor();
  const TokenAmount before = tree.total_balance();
  Message mint;
  mint.from = kSystemAddr;
  mint.to = bob_addr;
  mint.value = TokenAmount::whole(7);
  Receipt r = exec.apply_implicit(tree, mint, ctx);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(tree.get(bob_addr)->balance, TokenAmount::whole(7));
  EXPECT_EQ(tree.total_balance(), before + TokenAmount::whole(7));
}

TEST_F(ChainFixture, ImplicitFromNonSystemCannotMint) {
  auto exec = make_executor();
  Message m;
  m.from = bob_addr;  // no funds
  m.to = alice_addr;
  m.value = TokenAmount::whole(1);
  Receipt r = exec.apply_implicit(tree, m, ctx);
  EXPECT_EQ(r.exit, ExitCode::kSysInsufficientFunds);
}

TEST_F(ChainFixture, ValueConservedByUserMessages) {
  auto exec = make_executor();
  const TokenAmount before = tree.total_balance();
  auto sm = make_msg(0, {}, TokenAmount::whole(3), 0, bob_addr);
  (void)exec.apply(tree, sm, ctx);
  EXPECT_EQ(tree.total_balance(), before);  // fees move, nothing minted
}

// ------------------------------------------------------------ mempool

TEST_F(ChainFixture, MempoolNonceOrderedSelection) {
  Mempool pool;
  // Insert out of order.
  ASSERT_TRUE(pool.add(make_msg(0, {}, TokenAmount(), 2, bob_addr)).ok());
  ASSERT_TRUE(pool.add(make_msg(0, {}, TokenAmount(), 0, bob_addr)).ok());
  ASSERT_TRUE(pool.add(make_msg(0, {}, TokenAmount(), 1, bob_addr)).ok());
  auto picked = pool.select(10, [](const Address&) { return 0; });
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0].message.nonce, 0u);
  EXPECT_EQ(picked[1].message.nonce, 1u);
  EXPECT_EQ(picked[2].message.nonce, 2u);
}

TEST_F(ChainFixture, MempoolStopsAtNonceGap) {
  Mempool pool;
  ASSERT_TRUE(pool.add(make_msg(0, {}, TokenAmount(), 0, bob_addr)).ok());
  ASSERT_TRUE(pool.add(make_msg(0, {}, TokenAmount(), 2, bob_addr)).ok());
  auto picked = pool.select(10, [](const Address&) { return 0; });
  EXPECT_EQ(picked.size(), 1u);
}

TEST_F(ChainFixture, MempoolRejectsDuplicatesAndBadSignatures) {
  Mempool pool;
  auto sm = make_msg(0, {}, TokenAmount(), 0, bob_addr);
  ASSERT_TRUE(pool.add(sm).ok());
  EXPECT_EQ(pool.add(sm).error().code(), Errc::kAlreadyExists);
  auto bad = make_msg(0, {}, TokenAmount(), 1, bob_addr);
  bad.message.value = TokenAmount::whole(9);
  EXPECT_EQ(pool.add(bad).error().code(), Errc::kInvalidSignature);
}

TEST_F(ChainFixture, MempoolRemoveIncludedAndPrune) {
  Mempool pool;
  for (std::uint64_t n = 0; n < 5; ++n) {
    ASSERT_TRUE(pool.add(make_msg(0, {}, TokenAmount(), n, bob_addr)).ok());
  }
  auto picked = pool.select(2, [](const Address&) { return 0; });
  pool.remove_included(picked);
  EXPECT_EQ(pool.size(), 3u);
  pool.prune_stale([](const Address&) { return 4; });
  EXPECT_EQ(pool.size(), 1u);
}

TEST_F(ChainFixture, MempoolSelectRespectsChainNonce) {
  Mempool pool;
  for (std::uint64_t n = 0; n < 3; ++n) {
    ASSERT_TRUE(pool.add(make_msg(0, {}, TokenAmount(), n, bob_addr)).ok());
  }
  // Chain says alice's next nonce is 1: nonce-0 message is stale.
  auto picked = pool.select(10, [](const Address&) { return 1; });
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].message.nonce, 1u);
}

// ------------------------------------------------------------ chainstore

TEST_F(ChainFixture, ChainStoreAppendsValidatedBlocks) {
  auto exec = make_executor();
  Block genesis = ChainStore::make_genesis(tree, 0);
  ChainStore store(genesis, tree.snapshot());

  StateTree next = store.state().snapshot();
  Block b1;
  b1.header.miner = ctx.miner;
  b1.header.height = 1;
  b1.header.parent = genesis.cid();
  b1.messages.push_back(make_msg(0, {}, TokenAmount::whole(1), 0, bob_addr));
  for (auto& r : exec.apply_block(next, b1)) {
    ASSERT_TRUE(r.ok()) << r.error;
  }
  b1.header.state_root = next.flush();
  b1.header.msgs_root = b1.compute_msgs_root();
  ASSERT_TRUE(store.append(b1, std::move(next)).ok());
  EXPECT_EQ(store.height(), 1);
  EXPECT_EQ(store.state().get(bob_addr)->balance, TokenAmount::whole(1));
  EXPECT_NE(store.block_by_cid(b1.cid()), nullptr);
  EXPECT_EQ(store.block_at(1)->cid(), b1.cid());
}

TEST_F(ChainFixture, ChainStoreRejectsBadLinkage) {
  Block genesis = ChainStore::make_genesis(tree, 0);
  ChainStore store(genesis, tree.snapshot());

  Block bad;
  bad.header.height = 1;
  bad.header.parent = Cid::of(CidCodec::kBlock, to_bytes("other chain"));
  bad.header.msgs_root = bad.compute_msgs_root();
  bad.header.state_root = tree.flush();
  EXPECT_EQ(store.append(bad, tree.snapshot()).error().code(),
            Errc::kStateConflict);

  Block wrong_height;
  wrong_height.header.height = 5;
  wrong_height.header.parent = genesis.cid();
  wrong_height.header.msgs_root = wrong_height.compute_msgs_root();
  wrong_height.header.state_root = tree.flush();
  EXPECT_FALSE(store.append(wrong_height, tree.snapshot()).ok());
}

TEST_F(ChainFixture, ChainStoreRejectsStateRootMismatch) {
  Block genesis = ChainStore::make_genesis(tree, 0);
  ChainStore store(genesis, tree.snapshot());
  Block b1;
  b1.header.height = 1;
  b1.header.parent = genesis.cid();
  b1.header.msgs_root = b1.compute_msgs_root();
  b1.header.state_root = Cid::of(CidCodec::kStateRoot, to_bytes("lie"));
  EXPECT_EQ(store.append(b1, tree.snapshot()).error().code(),
            Errc::kInvalidArgument);
}

// --------------------------------------------- chainstore retention (§17)

namespace {

/// Append an empty block on top of `store` (state unchanged).
Block append_empty(ChainStore& store, const Address& miner) {
  Block b;
  b.header.miner = miner;
  b.header.height = store.height() + 1;
  b.header.parent = store.head().cid();
  StateTree next = store.state().snapshot();
  b.header.state_root = next.flush();
  b.header.msgs_root = b.compute_msgs_root();
  EXPECT_TRUE(store.append(b, std::move(next)).ok());
  return b;
}

}  // namespace

TEST_F(ChainFixture, ChainStoreRetentionPrunesByItems) {
  Block genesis = ChainStore::make_genesis(tree, 0);
  ChainStore store(genesis, tree.snapshot());
  store.set_retention({.max_items = 4, .max_bytes = 0});

  Block b1 = append_empty(store, ctx.miner);
  for (int h = 2; h <= 10; ++h) append_empty(store, ctx.miner);

  EXPECT_EQ(store.height(), 10);
  EXPECT_EQ(store.base_height(), 7);  // window = heights 7..10
  EXPECT_EQ(store.block_at(6), nullptr);
  ASSERT_NE(store.block_at(7), nullptr);
  EXPECT_EQ(store.block_at(7)->header.height, 7);
  EXPECT_EQ(store.head().header.height, 10);
  // The cid index follows the window: pruned blocks are unreachable.
  EXPECT_EQ(store.block_by_cid(genesis.cid()), nullptr);
  EXPECT_EQ(store.block_by_cid(b1.cid()), nullptr);
  EXPECT_NE(store.block_by_cid(store.head().cid()), nullptr);
  // Live state is untouched by pruning.
  EXPECT_EQ(store.state().flush(), store.head().header.state_root);
  // Replay-to-height refuses once the prefix is gone.
  auto exec = make_executor();
  auto at = store.state_at(3, exec);
  ASSERT_FALSE(at.ok());
  EXPECT_EQ(at.error().code(), Errc::kOutOfRange);
}

TEST_F(ChainFixture, ChainStoreRetentionPrunesByBytes) {
  Block genesis = ChainStore::make_genesis(tree, 0);
  ChainStore store(genesis, tree.snapshot());
  const std::size_t unbounded_two = [&] {
    ChainStore probe(genesis, tree.snapshot());
    append_empty(probe, ctx.miner);
    append_empty(probe, ctx.miner);
    return probe.mem_bytes();
  }();
  // Cap below the two-block footprint: the window must slide.
  store.set_retention({.max_items = 0, .max_bytes = unbounded_two / 2});
  for (int h = 1; h <= 8; ++h) append_empty(store, ctx.miner);
  EXPECT_GT(store.base_height(), 0);
  EXPECT_EQ(store.head().header.height, 8);
  EXPECT_LE(store.mem_bytes(), unbounded_two);
}

TEST_F(ChainFixture, ChainStoreRetentionKeepsHeadWhenCapTiny) {
  Block genesis = ChainStore::make_genesis(tree, 0);
  ChainStore store(genesis, tree.snapshot());
  store.set_retention({.max_items = 1, .max_bytes = 1});
  for (int h = 1; h <= 3; ++h) append_empty(store, ctx.miner);
  // Even an impossible cap never drops the head block.
  EXPECT_EQ(store.head().header.height, 3);
  EXPECT_EQ(store.base_height(), 3);
  EXPECT_NE(store.block_at(3), nullptr);
}

TEST_F(ChainFixture, ChainStoreMemBytesTracksWindow) {
  Block genesis = ChainStore::make_genesis(tree, 0);
  ChainStore unbounded(genesis, tree.snapshot());
  ChainStore bounded(genesis, tree.snapshot());
  bounded.set_retention({.max_items = 2, .max_bytes = 0});
  for (int h = 1; h <= 20; ++h) {
    Block b = append_empty(unbounded, ctx.miner);
    StateTree next = bounded.state().snapshot();
    (void)next.flush();
    ASSERT_TRUE(bounded.append(b, std::move(next)).ok());
  }
  // Same chain, bounded window: strictly smaller deterministic footprint.
  EXPECT_LT(bounded.mem_bytes(), unbounded.mem_bytes());
  // Unbounded store retains full history and replays fine.
  auto exec = make_executor();
  EXPECT_TRUE(unbounded.state_at(10, exec).ok());
}

}  // namespace
}  // namespace hc::chain

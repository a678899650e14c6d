// Byte pins for every wire and state type with a codec.
//
// Checkpoints, cross-msg batches and blocks are named by the CID of their
// encoding, and actor state is committed by the Merkle root over its
// encoding, so each type's byte layout is a consensus rule. Each case below
// builds one instance with a non-default value in every field and pins its
// encoding to a hex constant; a layout change must show up here first. The
// rejection cases feed the smallest out-of-range value for every range
// check a decoder applies to bytes from the network or the disk.
#include <gtest/gtest.h>

#include <concepts>
#include <string_view>

#include "actors/basic.hpp"
#include "actors/sa_state.hpp"
#include "actors/sca_actor.hpp"
#include "actors/sca_state.hpp"
#include "actors/subnet_actor.hpp"
#include "chain/block.hpp"
#include "chain/state.hpp"
#include "consensus/bft.hpp"
#include "consensus/lottery.hpp"
#include "consensus/poa.hpp"
#include "consensus/wire.hpp"
#include "core/checkpoint.hpp"
#include "core/crossmsg.hpp"
#include "core/fraud.hpp"
#include "core/params.hpp"
#include "core/policy.hpp"
#include "crypto/merkle.hpp"
#include "runtime/checkpoint_duty.hpp"
#include "runtime/resolution.hpp"
#include "storage/wal.hpp"

namespace hc {
namespace {

// ------------------------------------------------------------ fixtures

const crypto::KeyPair& key() {
  static const crypto::KeyPair k = crypto::KeyPair::from_label("wire-bytes");
  return k;
}

Address key_addr() { return Address::key(key().public_key().to_bytes()); }

Cid cid(CidCodec codec, std::string_view label) {
  return Cid::of(codec, to_bytes(label));
}

core::SubnetId child() {
  return core::SubnetId::root().child(Address::id(100));
}

chain::Message message() {
  chain::Message m;
  m.from = key_addr();
  m.to = Address::id(7);
  m.nonce = 5;
  m.value = TokenAmount::whole(3);
  m.method = 2;
  m.params = {1, 2, 3};
  m.gas_limit = 1000;
  m.gas_price = TokenAmount::atto(7);
  return m;
}

chain::BlockHeader header() {
  chain::BlockHeader h;
  h.miner = Address::id(3);
  h.height = 9;
  h.parent = cid(CidCodec::kBlock, "parent");
  h.state_root = cid(CidCodec::kStateRoot, "root");
  h.msgs_root = Sha256::hash(to_bytes("msgs"));
  h.timestamp = 123456;
  h.ticket = {9};
  h.proof = {8, 7};
  return h;
}

core::CrossMsg cross_msg() {
  return core::CrossMsg{child(), core::SubnetId::root(), message(), 3};
}

core::CrossMsgMeta meta() {
  core::CrossMsgMeta m;
  m.from = child();
  m.to = core::SubnetId::root();
  m.nonce = 4;
  m.msgs_cid = cid(CidCodec::kCrossMsgs, "batch");
  m.msg_count = 2;
  m.value = TokenAmount::whole(5);
  return m;
}

core::ChildCheck child_check() {
  return core::ChildCheck{child().child(Address::id(101)),
                          {cid(CidCodec::kCheckpoint, "grandchild")}};
}

core::Checkpoint checkpoint(chain::Epoch epoch = 12) {
  core::Checkpoint c;
  c.source = child();
  c.epoch = epoch;
  c.proof = cid(CidCodec::kBlock, "proof");
  c.prev = cid(CidCodec::kCheckpoint, "prev");
  c.children = {child_check()};
  c.cross_meta = {meta()};
  return c;
}

core::SignedCheckpoint signed_checkpoint(chain::Epoch epoch = 12) {
  core::SignedCheckpoint sc;
  sc.checkpoint = checkpoint(epoch);
  sc.add_signature(key());
  return sc;
}

core::SubnetParams params() {
  core::SubnetParams p;
  p.name = "wire";
  p.consensus = core::ConsensusType::kTendermint;
  p.min_validator_stake = TokenAmount::whole(2);
  p.min_collateral = TokenAmount::whole(4);
  p.checkpoint_period = 7;
  p.checkpoint_policy = {core::SignaturePolicyKind::kThreshold, 3};
  return p;
}

actors::SubnetEntry subnet_entry() {
  actors::SubnetEntry s;
  s.id = child();
  s.sa = Address::id(100);
  s.status = core::SubnetStatus::kInactive;
  s.collateral = TokenAmount::whole(10);
  s.min_collateral = TokenAmount::whole(1);
  s.circulating_supply = TokenAmount::atto(-5);
  s.topdown_nonce = 6;
  s.topdown_queue = {cross_msg()};
  s.checkpoints = {cid(CidCodec::kCheckpoint, "c1")};
  s.last_checkpoint_epoch = 20;
  s.recovered = {key_addr()};
  s.topdown_since_checkpoint = 2;
  s.topdown_shed = 1;
  return s;
}

actors::AtomicExec atomic_exec() {
  actors::AtomicExec a;
  a.id = 3;
  a.parties = {{child(), Address::id(200)}};
  a.input_cids = {cid(CidCodec::kStateRoot, "input")};
  a.status = actors::AtomicStatus::kCommitted;
  a.outputs = {cid(CidCodec::kStateRoot, "output")};
  return a;
}

actors::ScaState sca_state() {
  actors::ScaState s;
  s.self = child();
  s.checkpoint_period = 5;
  s.topdown_window_cap = 64;
  s.breaker_stall_epochs = 3;
  s.subnets.emplace(Address::id(100), subnet_entry());
  s.window_msgs = {cross_msg()};
  s.forward_meta = {meta()};
  s.window_children = {child_check()};
  s.pending_checkpoint = checkpoint();
  s.last_own_checkpoint = cid(CidCodec::kCheckpoint, "own");
  s.last_own_checkpoint_epoch = 10;
  s.msg_registry = {{Bytes{0xaa}, Bytes{0xbb, 0xcc}}};
  s.bottomup_nonce = 2;
  s.pending_bottomup = {{1, meta(), true}};
  s.applied_bottomup_nonce = 1;
  s.applied_topdown_nonce = 4;
  s.next_exec_id = 4;
  s.atomic_execs.emplace(3, atomic_exec());
  s.snapshots = {{8, cid(CidCodec::kStateRoot, "snap")}};
  s.fraud_digests = {cid(CidCodec::kCheckpoint, "fraud")};
  s.slash_records = {{child(), 12, key().public_key(), TokenAmount::whole(1)}};
  return s;
}

consensus::WireMsg wire_msg() {
  auto m = consensus::WireMsg::make(consensus::WireKind::kPrecommit, 9, 2,
                                    cid(CidCodec::kBlock, "voted"), {4, 5},
                                    key());
  m.extra = {6};
  return m;
}

// -------------------------------------------------------------- helpers

/// Pin `x`'s encoding to `hex` and check that it decodes back to `x`.
template <typename T>
void expect_pinned(const T& x, std::string_view hex) {
  const Bytes bytes = encode(x);
  EXPECT_EQ(to_hex(bytes), hex);
  EXPECT_EQ(encoded_size(x), bytes.size());
  auto back = decode<T>(bytes);
  ASSERT_TRUE(back.ok()) << back.error().message();
  EXPECT_EQ(encode(back.value()), bytes);
  if constexpr (std::equality_comparable<T>) {
    EXPECT_TRUE(back.value() == x);
  }
}

template <typename T>
void expect_rejected(const Bytes& bytes) {
  auto r = decode<T>(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), Errc::kDecodeError);
}

/// `x`'s encoding with the byte at `at` replaced by `value`.
template <typename T>
Bytes patched(const T& x, std::size_t at, std::uint8_t value) {
  Bytes b = encode(x);
  b.at(at) = value;
  return b;
}

// ---------------------------------------------------------------- pins

TEST(WireBytes, Address) {
  expect_pinned(key_addr(),
      "027cb907afae36b59adf211cce570584e8c3ff288dc8aa19aaae3fcfb31ca81b"
      "a7");
}

TEST(WireBytes, Cid) {
  expect_pinned(cid(CidCodec::kBlock, "cid"),
      "025424626b932a2ff9d191f0982447a979fddd8b4be251e924370cb66900df01"
      "8e");
}

TEST(WireBytes, TokenAmount) {
  expect_pinned(TokenAmount::atto(-123456789),
      "01000000000000000000000000075bcd15");
}

TEST(WireBytes, PublicKey) {
  expect_pinned(key().public_key(),
      "41b096de573f3125b7cf2afde898a068581c1fc723a9e12e8b09e5387e104266"
      "4d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25bf840d7d4b11d688b21");
}

TEST(WireBytes, Signature) {
  expect_pinned(key().sign(to_bytes("signed")),
      "84e6150e060cbb4c212d441447d3a8ba45854e68845254921af199256454ccab"
      "80d22db18eec0967451855c272e75cec7720d6b1de5fefad56a516d1bd1792c3"
      "8b05f40e574d6a378655af09ef651028b44cf74f0ba176db4eca38b9e51f6cd3");
}

TEST(WireBytes, SubnetId) { expect_pinned(child(), "010164"); }

TEST(WireBytes, MerkleStep) {
  expect_pinned(crypto::MerkleStep{Sha256::hash(to_bytes("sib")), true},
      "c4353298d81297190fbe18652e65fb68b4dece4c5215e379a386071b2c9d169a"
      "01");
}

TEST(WireBytes, Message) {
  expect_pinned(message(),
      "027cb907afae36b59adf211cce570584e8c3ff288dc8aa19aaae3fcfb31ca81b"
      "a701070500000000000000000029a2241af62c00000203010203e80700000000"
      "00000000000000000000000007");
}

TEST(WireBytes, SignedMessage) {
  expect_pinned(chain::SignedMessage::sign(message(), key()),
      "027cb907afae36b59adf211cce570584e8c3ff288dc8aa19aaae3fcfb31ca81b"
      "a701070500000000000000000029a2241af62c00000203010203e80700000000"
      "0000000000000000000000000741b096de573f3125b7cf2afde898a068581c1f"
      "c723a9e12e8b09e5387e1042664d6427fe9508b8e88db1536c80fa5b9c546bf5"
      "3e50d25bf840d7d4b11d688b217bc8e9fbf5554f0504c4a353b3bf9d7abd4944"
      "1172b2998b8e0b91cd7dc6d0e51b7f8b84d8dff83e87551516afd5444422c09c"
      "a5f286b328c3e0806c48f3262295e4086093c8014dfd6ab562b495df6ea7f77e"
      "30f86073cb206174524c85ef99");
}

TEST(WireBytes, BlockHeader) {
  expect_pinned(header(),
      "0103000000000000000902e47125968b3b71049fbc4802d1e40a71ea1359decf"
      "abacf70b34588037d4ff0c034813494d137e1631bba301d5acab6e7bb7aa74ce"
      "1185d456565ef51d737677b28dc321b9135ee4fbee83a304b911e871f83e7ae8"
      "4d344bae6f464804f77b2f86000000000001e2400109020807");
}

TEST(WireBytes, Block) {
  chain::Block b;
  b.header = header();
  b.messages = {chain::SignedMessage::sign(message(), key())};
  b.cross_messages = {message()};
  expect_pinned(b,
      "0103000000000000000902e47125968b3b71049fbc4802d1e40a71ea1359decf"
      "abacf70b34588037d4ff0c034813494d137e1631bba301d5acab6e7bb7aa74ce"
      "1185d456565ef51d737677b28dc321b9135ee4fbee83a304b911e871f83e7ae8"
      "4d344bae6f464804f77b2f86000000000001e240010902080701027cb907afae"
      "36b59adf211cce570584e8c3ff288dc8aa19aaae3fcfb31ca81ba70107050000"
      "0000000000000029a2241af62c00000203010203e80700000000000000000000"
      "0000000000000741b096de573f3125b7cf2afde898a068581c1fc723a9e12e8b"
      "09e5387e1042664d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25bf840"
      "d7d4b11d688b217bc8e9fbf5554f0504c4a353b3bf9d7abd49441172b2998b8e"
      "0b91cd7dc6d0e51b7f8b84d8dff83e87551516afd5444422c09ca5f286b328c3"
      "e0806c48f3262295e4086093c8014dfd6ab562b495df6ea7f77e30f86073cb20"
      "6174524c85ef9901027cb907afae36b59adf211cce570584e8c3ff288dc8aa19"
      "aaae3fcfb31ca81ba701070500000000000000000029a2241af62c0000020301"
      "0203e8070000000000000000000000000000000007");
}

TEST(WireBytes, ActorEntry) {
  chain::ActorEntry a;
  a.code = chain::kCodeKvApp;
  a.balance = TokenAmount::whole(9);
  a.nonce = 4;
  a.state = Bytes{5, 6};
  expect_pinned(a, "0a0000000000000000007ce66c50e284000004020506");
}

TEST(WireBytes, StateTree) {
  chain::StateTree t;
  chain::ActorEntry a;
  a.code = chain::kCodeAccount;
  a.balance = TokenAmount::whole(2);
  a.nonce = 1;
  t.set(key_addr(), a);
  a.code = chain::kCodeKvApp;
  a.state = Bytes{7};
  t.set(Address::id(50), a);
  expect_pinned(t,
      "0201320a0000000000000000001bc16d674ec80000010107027cb907afae36b5"
      "9adf211cce570584e8c3ff288dc8aa19aaae3fcfb31ca81ba701000000000000"
      "0000001bc16d674ec800000100");
}

TEST(WireBytes, SignaturePolicy) {
  expect_pinned(
      core::SignaturePolicy{core::SignaturePolicyKind::kThreshold, 3},
      "0200000003");
}

TEST(WireBytes, SubnetParams) {
  expect_pinned(params(),
      "0477697265020000000000000000001bc16d674ec80000000000000000000000"
      "3782dace9d900000000000070200000003");
}

TEST(WireBytes, CrossMsg) {
  expect_pinned(cross_msg(),
      "01016400027cb907afae36b59adf211cce570584e8c3ff288dc8aa19aaae3fcf"
      "b31ca81ba701070500000000000000000029a2241af62c00000203010203e807"
      "000000000000000000000000000000000703");
}

TEST(WireBytes, CrossMsgBatch) {
  expect_pinned(core::CrossMsgBatch{{cross_msg()}},
      "0101016400027cb907afae36b59adf211cce570584e8c3ff288dc8aa19aaae3f"
      "cfb31ca81ba701070500000000000000000029a2241af62c00000203010203e8"
      "07000000000000000000000000000000000703");
}

TEST(WireBytes, CrossMsgMeta) {
  expect_pinned(meta(),
      "0101640004054bb24efc9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd"
      "6acd89180bae000000020000000000000000004563918244f40000");
}

TEST(WireBytes, ChildCheck) {
  expect_pinned(child_check(),
      "02016401650104713b4f18f0e1371cf3f9cef65ef1843b836a9f83305912faa1"
      "8f122836816130");
}

TEST(WireBytes, Checkpoint) {
  expect_pinned(checkpoint(),
      "010164000000000000000c02c1cda26362828b69266512052b97cb3729e3b052"
      "e4ade47c0a1e3383defe73c70484fd9bac333ad79154348296204fa7f8c537a9"
      "6e08983e5f73b3f5aca8e8edf70102016401650104713b4f18f0e1371cf3f9ce"
      "f65ef1843b836a9f83305912faa18f122836816130010101640004054bb24efc"
      "9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd6acd89180bae00000002"
      "0000000000000000004563918244f40000");
}

TEST(WireBytes, CheckpointSignature) {
  expect_pinned(core::CheckpointSignature{key().public_key(),
                                          key().sign(to_bytes("cp"))},
      "41b096de573f3125b7cf2afde898a068581c1fc723a9e12e8b09e5387e104266"
      "4d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25bf840d7d4b11d688b21"
      "a755b1f312f55b4665dd4fde5b7e319d28b39954c5ab6d44317ce9f72fd7220e"
      "15c2302e84a51e58a9864c9c877b3edbdb376a5c5debb39b14e59ea1c290e98c"
      "c187041a257345143227c0e8dbfcf818e3e80c81af89da140b40c847fb719ff4");
}

TEST(WireBytes, SignedCheckpoint) {
  expect_pinned(signed_checkpoint(),
      "010164000000000000000c02c1cda26362828b69266512052b97cb3729e3b052"
      "e4ade47c0a1e3383defe73c70484fd9bac333ad79154348296204fa7f8c537a9"
      "6e08983e5f73b3f5aca8e8edf70102016401650104713b4f18f0e1371cf3f9ce"
      "f65ef1843b836a9f83305912faa18f122836816130010101640004054bb24efc"
      "9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd6acd89180bae00000002"
      "0000000000000000004563918244f400000141b096de573f3125b7cf2afde898"
      "a068581c1fc723a9e12e8b09e5387e1042664d6427fe9508b8e88db1536c80fa"
      "5b9c546bf53e50d25bf840d7d4b11d688b21b96fb650e80092dc3e9c33b7579c"
      "c41a5fd787b33c8335584d12d1f2ce3e4d8995eee39ab83a1f1ddb196ad822f5"
      "8660763a9f5194c656fc11ea93af4f56a5f4a5b66d73eb0f17894d287607dbde"
      "6e1ef8c3f9c6d53521e4f8d407771128098d");
}

TEST(WireBytes, FraudProof) {
  expect_pinned(core::FraudProof{signed_checkpoint(12), signed_checkpoint(13)},
      "010164000000000000000c02c1cda26362828b69266512052b97cb3729e3b052"
      "e4ade47c0a1e3383defe73c70484fd9bac333ad79154348296204fa7f8c537a9"
      "6e08983e5f73b3f5aca8e8edf70102016401650104713b4f18f0e1371cf3f9ce"
      "f65ef1843b836a9f83305912faa18f122836816130010101640004054bb24efc"
      "9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd6acd89180bae00000002"
      "0000000000000000004563918244f400000141b096de573f3125b7cf2afde898"
      "a068581c1fc723a9e12e8b09e5387e1042664d6427fe9508b8e88db1536c80fa"
      "5b9c546bf53e50d25bf840d7d4b11d688b21b96fb650e80092dc3e9c33b7579c"
      "c41a5fd787b33c8335584d12d1f2ce3e4d8995eee39ab83a1f1ddb196ad822f5"
      "8660763a9f5194c656fc11ea93af4f56a5f4a5b66d73eb0f17894d287607dbde"
      "6e1ef8c3f9c6d53521e4f8d407771128098d010164000000000000000d02c1cd"
      "a26362828b69266512052b97cb3729e3b052e4ade47c0a1e3383defe73c70484"
      "fd9bac333ad79154348296204fa7f8c537a96e08983e5f73b3f5aca8e8edf701"
      "02016401650104713b4f18f0e1371cf3f9cef65ef1843b836a9f83305912faa1"
      "8f122836816130010101640004054bb24efc9641afc5ded1ca77eabb6e2fcf06"
      "2d2112ccd61bd8bd6acd89180bae000000020000000000000000004563918244"
      "f400000141b096de573f3125b7cf2afde898a068581c1fc723a9e12e8b09e538"
      "7e1042664d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25bf840d7d4b1"
      "1d688b214e8cb26ff5ccdf201b4c521bf8388eb676ea008c9e826bb775a02275"
      "b927f6c57808744ff1aaf35f407d1042d1528f1dbe52565abcf059e47cfd2399"
      "2e471b47ea2b69d575576d75a077dd5402995fe4e78d55b8c80e1b4204c430f3"
      "52efd06d");
}

TEST(WireBytes, ValidatorInfo) {
  expect_pinned(
      actors::ValidatorInfo{key().public_key(), TokenAmount::whole(6)},
      "41b096de573f3125b7cf2afde898a068581c1fc723a9e12e8b09e5387e104266"
      "4d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25bf840d7d4b11d688b21"
      "00000000000000000053444835ec580000");
}

TEST(WireBytes, SaState) {
  actors::SaState s;
  s.params = params();
  s.subnet_id = child();
  s.registered = true;
  s.killed = true;
  s.validators = {{key().public_key(), TokenAmount::whole(6)}};
  s.total_stake = TokenAmount::whole(6);
  s.last_checkpoint = cid(CidCodec::kCheckpoint, "last");
  s.last_checkpoint_epoch = 15;
  expect_pinned(s,
      "0477697265020000000000000000001bc16d674ec80000000000000000000000"
      "3782dace9d90000000000007020000000301016401010141b096de573f3125b7"
      "cf2afde898a068581c1fc723a9e12e8b09e5387e1042664d6427fe9508b8e88d"
      "b1536c80fa5b9c546bf53e50d25bf840d7d4b11d688b21000000000000000000"
      "53444835ec58000000000000000000000053444835ec580000043547cb112ac4"
      "489af2310c0626cdba6f3097a2ad5a3b42ddd3b59c76c7a079a3000000000000"
      "000f");
}

TEST(WireBytes, SubnetEntry) {
  expect_pinned(subnet_entry(),
      "0101640164010000000000000000008ac7230489e80000000000000000000000"
      "0de0b6b3a7640000010000000000000000000000000000000506010101640002"
      "7cb907afae36b59adf211cce570584e8c3ff288dc8aa19aaae3fcfb31ca81ba7"
      "01070500000000000000000029a2241af62c00000203010203e8070000000000"
      "000000000000000000000007030104d0f631ca1ddba8db3bcfcb9e057cdc98d0"
      "379f1bee00e75a545147a27dadd982000000000000001401027cb907afae36b5"
      "9adf211cce570584e8c3ff288dc8aa19aaae3fcfb31ca81ba70201");
}

TEST(WireBytes, SlashRecord) {
  expect_pinned(actors::SlashRecord{child(), 12, key().public_key(),
                                    TokenAmount::whole(1)},
      "010164000000000000000c41b096de573f3125b7cf2afde898a068581c1fc723"
      "a9e12e8b09e5387e1042664d6427fe9508b8e88db1536c80fa5b9c546bf53e50"
      "d25bf840d7d4b11d688b210000000000000000000de0b6b3a7640000");
}

TEST(WireBytes, PendingBottomUp) {
  expect_pinned(actors::PendingBottomUp{1, meta(), true},
      "010101640004054bb24efc9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8"
      "bd6acd89180bae000000020000000000000000004563918244f4000001");
}

TEST(WireBytes, AtomicParty) {
  expect_pinned(actors::AtomicParty{child(), Address::id(200)}, "01016401c801");
}

TEST(WireBytes, AtomicExec) {
  expect_pinned(atomic_exec(),
      "030101016401c8010103c96c6d5be8d08a12e7b5cdc1b207fa6b2430974c8680"
      "3d8891675e76fd992c20010103e0ee8bb50685e05fa0f47ed04203ae953fdfd0"
      "55f5bd2892ea186504254f8c3a");
}

TEST(WireBytes, StateSnapshot) {
  expect_pinned(actors::StateSnapshot{8, cid(CidCodec::kStateRoot, "snap")},
      "0000000000000008031c27324f013705cbf0c49f3d3bb103c7069ed5988889d4"
      "26c10cfc25684f0a31");
}

TEST(WireBytes, ScaStateWithPendingCheckpoint) {
  expect_pinned(sca_state(),
      "010164000000050101640101640164010000000000000000008ac7230489e800"
      "000000000000000000000de0b6b3a76400000100000000000000000000000000"
      "000005060101016400027cb907afae36b59adf211cce570584e8c3ff288dc8aa"
      "19aaae3fcfb31ca81ba701070500000000000000000029a2241af62c00000203"
      "010203e8070000000000000000000000000000000007030104d0f631ca1ddba8"
      "db3bcfcb9e057cdc98d0379f1bee00e75a545147a27dadd98200000000000000"
      "1401027cb907afae36b59adf211cce570584e8c3ff288dc8aa19aaae3fcfb31c"
      "a81ba702010101016400027cb907afae36b59adf211cce570584e8c3ff288dc8"
      "aa19aaae3fcfb31ca81ba701070500000000000000000029a2241af62c000002"
      "03010203e807000000000000000000000000000000000703010101640004054b"
      "b24efc9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd6acd89180bae00"
      "0000020000000000000000004563918244f400000102016401650104713b4f18"
      "f0e1371cf3f9cef65ef1843b836a9f83305912faa18f12283681613001010164"
      "000000000000000c02c1cda26362828b69266512052b97cb3729e3b052e4ade4"
      "7c0a1e3383defe73c70484fd9bac333ad79154348296204fa7f8c537a96e0898"
      "3e5f73b3f5aca8e8edf70102016401650104713b4f18f0e1371cf3f9cef65ef1"
      "843b836a9f83305912faa18f122836816130010101640004054bb24efc9641af"
      "c5ded1ca77eabb6e2fcf062d2112ccd61bd8bd6acd89180bae00000002000000"
      "0000000000004563918244f40000045b3975651c3cab92d044c096dc30a1c2d9"
      "525497457472de48c51ecb363d1f4a000000000000000a0101aa02bbcc020101"
      "0101640004054bb24efc9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd"
      "6acd89180bae000000020000000000000000004563918244f400000101040401"
      "03030101016401c8010103c96c6d5be8d08a12e7b5cdc1b207fa6b2430974c86"
      "803d8891675e76fd992c20010103e0ee8bb50685e05fa0f47ed04203ae953fdf"
      "d055f5bd2892ea186504254f8c3a010000000000000008031c27324f013705cb"
      "f0c49f3d3bb103c7069ed5988889d426c10cfc25684f0a310104f02b95ed0b00"
      "ce45335979782615d60879b99e788fa3b7b8fca1599589b88846010101640000"
      "00000000000c41b096de573f3125b7cf2afde898a068581c1fc723a9e12e8b09"
      "e5387e1042664d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25bf840d7"
      "d4b11d688b210000000000000000000de0b6b3a7640000400000000000000003");
}

TEST(WireBytes, ScaStateWithoutPendingCheckpoint) {
  actors::ScaState s = sca_state();
  s.pending_checkpoint.reset();
  expect_pinned(s,
      "010164000000050101640101640164010000000000000000008ac7230489e800"
      "000000000000000000000de0b6b3a76400000100000000000000000000000000"
      "000005060101016400027cb907afae36b59adf211cce570584e8c3ff288dc8aa"
      "19aaae3fcfb31ca81ba701070500000000000000000029a2241af62c00000203"
      "010203e8070000000000000000000000000000000007030104d0f631ca1ddba8"
      "db3bcfcb9e057cdc98d0379f1bee00e75a545147a27dadd98200000000000000"
      "1401027cb907afae36b59adf211cce570584e8c3ff288dc8aa19aaae3fcfb31c"
      "a81ba702010101016400027cb907afae36b59adf211cce570584e8c3ff288dc8"
      "aa19aaae3fcfb31ca81ba701070500000000000000000029a2241af62c000002"
      "03010203e807000000000000000000000000000000000703010101640004054b"
      "b24efc9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd6acd89180bae00"
      "0000020000000000000000004563918244f400000102016401650104713b4f18"
      "f0e1371cf3f9cef65ef1843b836a9f83305912faa18f12283681613000045b39"
      "75651c3cab92d044c096dc30a1c2d9525497457472de48c51ecb363d1f4a0000"
      "00000000000a0101aa02bbcc0201010101640004054bb24efc9641afc5ded1ca"
      "77eabb6e2fcf062d2112ccd61bd8bd6acd89180bae0000000200000000000000"
      "00004563918244f40000010104040103030101016401c8010103c96c6d5be8d0"
      "8a12e7b5cdc1b207fa6b2430974c86803d8891675e76fd992c20010103e0ee8b"
      "b50685e05fa0f47ed04203ae953fdfd055f5bd2892ea186504254f8c3a010000"
      "000000000008031c27324f013705cbf0c49f3d3bb103c7069ed5988889d426c1"
      "0cfc25684f0a310104f02b95ed0b00ce45335979782615d60879b99e788fa3b7"
      "b8fca1599589b8884601010164000000000000000c41b096de573f3125b7cf2a"
      "fde898a068581c1fc723a9e12e8b09e5387e1042664d6427fe9508b8e88db153"
      "6c80fa5b9c546bf53e50d25bf840d7d4b11d688b210000000000000000000de0"
      "b6b3a7640000400000000000000003");
}

TEST(WireBytes, CrossParams) {
  expect_pinned(actors::CrossParams{child(), Address::id(8), 3, {1}},
      "0101640108030101");
}

TEST(WireBytes, ReleaseStakeParams) {
  expect_pinned(actors::ReleaseStakeParams{TokenAmount::whole(2), key_addr()},
      "0000000000000000001bc16d674ec80000027cb907afae36b59adf211cce5705"
      "84e8c3ff288dc8aa19aaae3fcfb31ca81ba7");
}

TEST(WireBytes, KillParams) {
  expect_pinned(actors::KillParams{key_addr()},
      "027cb907afae36b59adf211cce570584e8c3ff288dc8aa19aaae3fcfb31ca81b"
      "a7");
}

TEST(WireBytes, CutParams) {
  expect_pinned(actors::CutParams{30, cid(CidCodec::kBlock, "cut")},
      "000000000000001e02378bfce5cda2599a6cda399f1cacef861e4e575ec79474"
      "4dcf0e55e9c4780633");
}

TEST(WireBytes, ApplyBottomUpParams) {
  expect_pinned(actors::ApplyBottomUpParams{2, {{cross_msg()}}},
      "020101016400027cb907afae36b59adf211cce570584e8c3ff288dc8aa19aaae"
      "3fcfb31ca81ba701070500000000000000000029a2241af62c00000203010203"
      "e807000000000000000000000000000000000703");
}

TEST(WireBytes, RecoverParams) {
  actors::RecoverParams p;
  p.sa = Address::id(100);
  p.checkpoint = checkpoint();
  p.header = header();
  p.claimed_addr = key_addr();
  p.claimed_entry.code = chain::kCodeAccount;
  p.claimed_entry.balance = TokenAmount::whole(3);
  p.claimed_entry.nonce = 2;
  p.claimed_entry.state = Bytes{1};
  p.proof = {{Sha256::hash(to_bytes("sib")), true}};
  expect_pinned(p,
      "0164010164000000000000000c02c1cda26362828b69266512052b97cb3729e3"
      "b052e4ade47c0a1e3383defe73c70484fd9bac333ad79154348296204fa7f8c5"
      "37a96e08983e5f73b3f5aca8e8edf70102016401650104713b4f18f0e1371cf3"
      "f9cef65ef1843b836a9f83305912faa18f122836816130010101640004054bb2"
      "4efc9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd6acd89180bae0000"
      "00020000000000000000004563918244f400000103000000000000000902e471"
      "25968b3b71049fbc4802d1e40a71ea1359decfabacf70b34588037d4ff0c0348"
      "13494d137e1631bba301d5acab6e7bb7aa74ce1185d456565ef51d737677b28d"
      "c321b9135ee4fbee83a304b911e871f83e7ae84d344bae6f464804f77b2f8600"
      "0000000001e2400109020807027cb907afae36b59adf211cce570584e8c3ff28"
      "8dc8aa19aaae3fcfb31ca81ba70100000000000000000029a2241af62c000002"
      "010101c4353298d81297190fbe18652e65fb68b4dece4c5215e379a386071b2c"
      "9d169a01");
}

TEST(WireBytes, SaveParams) {
  expect_pinned(actors::SaveParams{cid(CidCodec::kStateRoot, "save")},
      "03157dca92e4250458339d4b835250d44c238f3355e1b7986195188ee434e9ba"
      "ff");
}

TEST(WireBytes, AtomicInitParams) {
  expect_pinned(
      actors::AtomicInitParams{{{child(), Address::id(200)}},
                               {cid(CidCodec::kStateRoot, "input")}},
      "0101016401c8010103c96c6d5be8d08a12e7b5cdc1b207fa6b2430974c86803d"
      "8891675e76fd992c20");
}

TEST(WireBytes, AtomicSubmitParams) {
  expect_pinned(
      actors::AtomicSubmitParams{3, cid(CidCodec::kStateRoot, "output")},
      "0303e0ee8bb50685e05fa0f47ed04203ae953fdfd055f5bd2892ea186504254f"
      "8c3a");
}

TEST(WireBytes, AtomicAbortParams) {
  expect_pinned(actors::AtomicAbortParams{300}, "ac02");
}

TEST(WireBytes, AtomicNotice) {
  expect_pinned(actors::AtomicNotice{3, actors::AtomicStatus::kAborted},
                "0302");
}

TEST(WireBytes, JoinParams) {
  expect_pinned(actors::JoinParams{key().public_key()},
      "41b096de573f3125b7cf2afde898a068581c1fc723a9e12e8b09e5387e104266"
      "4d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25bf840d7d4b11d688b21");
}

TEST(WireBytes, SlashParams) {
  expect_pinned(actors::SlashParams{{key().public_key()}},
      "0141b096de573f3125b7cf2afde898a068581c1fc723a9e12e8b09e5387e1042"
      "664d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25bf840d7d4b11d688b"
      "21");
}

TEST(WireBytes, ExecParams) {
  expect_pinned(actors::ExecParams{chain::kCodeSubnetActor, {1, 2}},
                "04020102");
}

TEST(WireBytes, KvParams) {
  expect_pinned(actors::KvParams{{1}, {2, 3}}, "0101020203");
}

TEST(WireBytes, KvEntry) {
  expect_pinned(actors::KvState::Entry{{1}, {2, 3}, true}, "010102020301");
}

TEST(WireBytes, KvState) {
  expect_pinned(actors::KvState{{{{1}, {2, 3}, true}}}, "01010102020301");
}

TEST(WireBytes, WireMsg) {
  expect_pinned(wire_msg(),
      "03000000000000000900000002025a3b08afa2e863a0da07e8bee95e83530b04"
      "9e65b01361b7e9e8ebfabc34436e020405010641b096de573f3125b7cf2afde8"
      "98a068581c1fc723a9e12e8b09e5387e1042664d6427fe9508b8e88db1536c80"
      "fa5b9c546bf53e50d25bf840d7d4b11d688b21c9c68b0d5d9395388e63d96482"
      "fe734240763f1653a89f8b3c0a801d33cb5ecbcbd2c84cb93d9b84490326fe40"
      "d7a5f37168492c3de182d1e9916a9acd702830892b90af2c5c5a9cac9ab0e95b"
      "c5bf2f709eee3f2bb10389f7e81d325797645c");
}

TEST(WireBytes, QuorumCert) {
  consensus::QuorumCert q;
  q.height = 9;
  q.round = 2;
  q.block_cid = cid(CidCodec::kBlock, "voted");
  q.signers = {key().public_key()};
  q.signatures = {key().sign(to_bytes("qc"))};
  expect_pinned(q,
      "000000000000000900000002025a3b08afa2e863a0da07e8bee95e83530b049e"
      "65b01361b7e9e8ebfabc34436e0141b096de573f3125b7cf2afde898a068581c"
      "1fc723a9e12e8b09e5387e1042664d6427fe9508b8e88db1536c80fa5b9c546b"
      "f53e50d25bf840d7d4b11d688b2101cf28474bbbec40eff3e871b3e15c495737"
      "61dba6e2b73df197548cc758c5b4f4cc96af49ccee5e7902015254d8ce5cf057"
      "c23527a54b38140a4cb91d11580d3d116c4a1db8d98fda2351a83e1fcee90781"
      "e82132d2344398eba169dcf5d042d0");
}

TEST(WireBytes, PoaVoteState) {
  expect_pinned(consensus::PoaVoteState{21}, "0000000000000015");
}

TEST(WireBytes, LotteryVoteState) {
  expect_pinned(consensus::LotteryVoteState{22}, "0000000000000016");
}

TEST(WireBytes, BftVoteState) {
  consensus::BftVoteState s;
  s.height = 9;
  s.round = 2;
  s.proposed = true;
  s.voted[0] = true;
  s.voted[1] = true;
  s.locked_round = 1;
  s.locked_block = {7, 8};
  for (const auto* policy :
       {&consensus::kTendermintPolicy, &consensus::kRrBftPolicy}) {
    const Bytes bytes = s.encode(*policy);
    auto back = consensus::BftVoteState::decode(bytes, *policy);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().encode(*policy), bytes);
  }
  EXPECT_EQ(to_hex(s.encode(consensus::kTendermintPolicy)),
      "0000000000000009000000020101010000000000000001020708");
  EXPECT_EQ(to_hex(s.encode(consensus::kRrBftPolicy)),
      "0000000000000009000000020101");
}

TEST(WireBytes, ResolutionMsg) {
  expect_pinned(runtime::ResolutionMsg{runtime::ResolutionKind::kPull,
                                       cid(CidCodec::kCrossMsgs, "batch"),
                                       {1, 2},
                                       child()},
      "01054bb24efc9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd6acd8918"
      "0bae020102010164");
}

runtime::SigShare share() {
  const Cid c = cid(CidCodec::kCheckpoint, "shared");
  return runtime::SigShare{
      12, c, key().public_key(),
      key().sign(core::SignedCheckpoint::signing_payload_for(c))};
}

TEST(WireBytes, SigShare) {
  expect_pinned(share(),
      "000000000000000c04a4d26868017c0ccffe2efe50944ef4211834660cca834c"
      "6e9f86dec6a88246fa41b096de573f3125b7cf2afde898a068581c1fc723a9e1"
      "2e8b09e5387e1042664d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25b"
      "f840d7d4b11d688b210d68cdd82ce03d4569fa01d906587f320bcc2f18398ebe"
      "91213f58699922b0de40028a2ee337700a6ae59e9d39e8a6a56714f24f4b47d0"
      "60894f78625c6cef29c8bbd52642227f383f65fa28ed7cbc45487c16cca86a86"
      "3594cad593ece93d69");
}

TEST(WireBytes, SigGossipWithCheckpoint) {
  expect_pinned(runtime::SigGossip{share(), checkpoint()},
      "000000000000000c04a4d26868017c0ccffe2efe50944ef4211834660cca834c"
      "6e9f86dec6a88246fa41b096de573f3125b7cf2afde898a068581c1fc723a9e1"
      "2e8b09e5387e1042664d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25b"
      "f840d7d4b11d688b210d68cdd82ce03d4569fa01d906587f320bcc2f18398ebe"
      "91213f58699922b0de40028a2ee337700a6ae59e9d39e8a6a56714f24f4b47d0"
      "60894f78625c6cef29c8bbd52642227f383f65fa28ed7cbc45487c16cca86a86"
      "3594cad593ece93d6901010164000000000000000c02c1cda26362828b692665"
      "12052b97cb3729e3b052e4ade47c0a1e3383defe73c70484fd9bac333ad79154"
      "348296204fa7f8c537a96e08983e5f73b3f5aca8e8edf7010201640165010471"
      "3b4f18f0e1371cf3f9cef65ef1843b836a9f83305912faa18f12283681613001"
      "0101640004054bb24efc9641afc5ded1ca77eabb6e2fcf062d2112ccd61bd8bd"
      "6acd89180bae000000020000000000000000004563918244f40000");
}

TEST(WireBytes, SigGossipWithoutCheckpoint) {
  expect_pinned(runtime::SigGossip{share(), std::nullopt},
      "000000000000000c04a4d26868017c0ccffe2efe50944ef4211834660cca834c"
      "6e9f86dec6a88246fa41b096de573f3125b7cf2afde898a068581c1fc723a9e1"
      "2e8b09e5387e1042664d6427fe9508b8e88db1536c80fa5b9c546bf53e50d25b"
      "f840d7d4b11d688b210d68cdd82ce03d4569fa01d906587f320bcc2f18398ebe"
      "91213f58699922b0de40028a2ee337700a6ae59e9d39e8a6a56714f24f4b47d0"
      "60894f78625c6cef29c8bbd52642227f383f65fa28ed7cbc45487c16cca86a86"
      "3594cad593ece93d6900");
}

TEST(WireBytes, WalRecord) {
  expect_pinned(storage::WalRecord{storage::WalRecordType::kVoteState, 40,
                                   {1, 2},
                                   {3}},
      "0300000000000000280201020103");
}

// A vector count is bounded by the input left to decode, which assumes that
// every element encodes to at least one byte: no element type may encode to
// nothing, not even its default value.
TEST(WireBytes, EveryVectorElementEncodesToAtLeastOneByte) {
  EXPECT_GE(encoded_size(Address{}), 1u);
  EXPECT_GE(encoded_size(Cid{}), 1u);
  EXPECT_GE(encoded_size(crypto::PublicKey{}), 1u);
  EXPECT_GE(encoded_size(crypto::Signature{}), 1u);
  EXPECT_GE(encoded_size(crypto::MerkleStep{}), 1u);
  EXPECT_GE(encoded_size(chain::Message{}), 1u);
  EXPECT_GE(encoded_size(chain::SignedMessage{}), 1u);
  EXPECT_GE(encoded_size(core::CrossMsg{}), 1u);
  EXPECT_GE(encoded_size(core::CrossMsgMeta{}), 1u);
  EXPECT_GE(encoded_size(core::ChildCheck{}), 1u);
  EXPECT_GE(encoded_size(core::CheckpointSignature{}), 1u);
  EXPECT_GE(encoded_size(actors::ValidatorInfo{}), 1u);
  EXPECT_GE(encoded_size(actors::PendingBottomUp{}), 1u);
  EXPECT_GE(encoded_size(actors::AtomicParty{}), 1u);
  EXPECT_GE(encoded_size(actors::StateSnapshot{}), 1u);
  EXPECT_GE(encoded_size(actors::SlashRecord{}), 1u);
  EXPECT_GE(encoded_size(actors::KvState::Entry{}), 1u);
}

// ----------------------------------------------------------- rejections

TEST(WireBytes, RejectsWireKindPastLast) {
  expect_rejected<consensus::WireMsg>(patched(wire_msg(), 0, 5));
}

TEST(WireBytes, RejectsConsensusTypePastLast) {
  // The enum byte follows the name: varint length 4, then "wire".
  expect_rejected<core::SubnetParams>(patched(params(), 5, 4));
}

TEST(WireBytes, RejectsSignaturePolicyKindPastLast) {
  expect_rejected<core::SignaturePolicy>(patched(
      core::SignaturePolicy{core::SignaturePolicyKind::kSingle, 1}, 0, 3));
}

TEST(WireBytes, RejectsSubnetStatusPastLast) {
  const actors::SubnetEntry s = subnet_entry();
  const std::size_t at = encoded_size(s.id) + encoded_size(s.sa);
  expect_rejected<actors::SubnetEntry>(patched(s, at, 3));
}

TEST(WireBytes, RejectsAtomicExecStatusPastLast) {
  // Id 3 (one byte), no parties, no inputs: the status is the fourth byte.
  actors::AtomicExec a;
  a.id = 3;
  expect_rejected<actors::AtomicExec>(patched(a, 3, 3));
}

TEST(WireBytes, RejectsAtomicNoticeStatusPastLast) {
  expect_rejected<actors::AtomicNotice>(
      patched(actors::AtomicNotice{3, actors::AtomicStatus::kPending}, 1, 3));
}

TEST(WireBytes, RejectsResolutionKindPastLast) {
  expect_rejected<runtime::ResolutionMsg>(
      patched(runtime::ResolutionMsg{runtime::ResolutionKind::kPush,
                                     cid(CidCodec::kCrossMsgs, "batch"),
                                     {},
                                     child()},
              0, 3));
}

TEST(WireBytes, RejectsWalRecordTypeOutsideRange) {
  const storage::WalRecord r{storage::WalRecordType::kBlock, 1, {}, {}};
  expect_rejected<storage::WalRecord>(patched(r, 0, 0));
  expect_rejected<storage::WalRecord>(patched(r, 0, 4));
}

/// `base` with the empty container whose count byte sits at `at` replaced
/// by `n` copies of `element`. Every other byte stays valid, so only a cap
/// can reject the count.
Bytes with_count(const Bytes& base, std::size_t at, std::uint64_t n,
                 const Bytes& element) {
  EXPECT_EQ(base.at(at), 0);  // an empty container's count
  Encoder e;
  e.raw(BytesView(base).first(at)).varint(n);
  for (std::uint64_t i = 0; i < n; ++i) e.raw(element);
  e.raw(BytesView(base).subspan(at + 1));
  return std::move(e).take();
}

// Where a default ScaState's (self = root) encoding holds each map count.
constexpr std::size_t kSubnetsAt = 1 + 4;  // self, checkpoint period
// Subnets, three vectors, the pending-checkpoint flag, last own checkpoint.
constexpr std::size_t kRegistryAt = kSubnetsAt + 1 + 3 + 1 + 33 + 8;
// Registry, bottom-up nonce, pending bottom-up, two cursors, next exec id.
constexpr std::size_t kAtomicExecsAt = kRegistryAt + 6;

/// A ScaState map holding `cap` copies of `entry` decodes; one more is
/// rejected.
void expect_sca_map_cap(std::size_t at, std::uint64_t cap,
                        const Encoder& entry) {
  const Bytes base = encode(actors::ScaState{});
  EXPECT_TRUE(
      decode<actors::ScaState>(with_count(base, at, cap, entry.data())).ok());
  expect_rejected<actors::ScaState>(
      with_count(base, at, cap + 1, entry.data()));
}

TEST(WireBytes, RejectsScaSubnetCountOverCap) {
  Encoder entry;
  entry.obj(Address{}).obj(actors::SubnetEntry{});
  expect_sca_map_cap(kSubnetsAt, 1u << 16, entry);
}

TEST(WireBytes, RejectsScaRegistryCountOverCap) {
  Encoder entry;
  entry.bytes({}).bytes({});
  expect_sca_map_cap(kRegistryAt, 1u << 20, entry);
}

TEST(WireBytes, RejectsScaAtomicExecCountOverCap) {
  Encoder entry;
  entry.varint(0).obj(actors::AtomicExec{});
  expect_sca_map_cap(kAtomicExecsAt, 1u << 16, entry);
}

TEST(WireBytes, RejectsVectorCountOverCap) {
  // SubnetEntry::recovered, whose elements (invalid addresses) encode to
  // one byte each; two varints follow it.
  const Bytes base = encode(actors::SubnetEntry{});
  expect_rejected<actors::SubnetEntry>(with_count(
      base, base.size() - 3, (1u << 20) + 1, encode(Address{})));
}

TEST(WireBytes, RejectsTrailingBytes) {
  Bytes b = encode(message());
  b.push_back(0);
  expect_rejected<chain::Message>(b);
}

}  // namespace
}  // namespace hc

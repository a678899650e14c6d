// Codec fuzzing: every decoder that consumes network bytes must reject
// arbitrary garbage gracefully (error, never crash/UB) and must round-trip
// randomized valid structures exactly.
#include <gtest/gtest.h>

#include "actors/sa_state.hpp"
#include "actors/sca_actor.hpp"
#include "actors/sca_state.hpp"
#include "consensus/wire.hpp"
#include "core/checkpoint.hpp"
#include "core/crossmsg.hpp"
#include "runtime/checkpoint_duty.hpp"
#include "runtime/resolution.hpp"
#include "sim/rng.hpp"

namespace hc {
namespace {

Bytes random_blob(sim::Rng& rng, std::size_t max_len) {
  Bytes out(rng.uniform(max_len) + 1);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

template <typename T>
void fuzz_decoder(const char* name, int rounds = 300) {
  sim::Rng rng(std::hash<std::string>{}(name));
  int accepted = 0;
  for (int i = 0; i < rounds; ++i) {
    const Bytes blob = random_blob(rng, 256);
    auto result = decode<T>(blob);
    if (result.ok()) ++accepted;  // extremely unlikely but legal
  }
  // Random bytes must essentially never parse as complex structures.
  EXPECT_LE(accepted, rounds / 10) << name;
}

TEST(CodecFuzz, GarbageNeverCrashesDecoders) {
  fuzz_decoder<chain::Message>("Message");
  fuzz_decoder<chain::SignedMessage>("SignedMessage");
  fuzz_decoder<chain::Block>("Block");
  fuzz_decoder<chain::BlockHeader>("BlockHeader");
  fuzz_decoder<chain::StateTree>("StateTree");
  fuzz_decoder<core::SubnetId>("SubnetId");
  fuzz_decoder<core::CrossMsg>("CrossMsg");
  fuzz_decoder<core::CrossMsgMeta>("CrossMsgMeta");
  fuzz_decoder<core::Checkpoint>("Checkpoint");
  fuzz_decoder<core::SignedCheckpoint>("SignedCheckpoint");
  fuzz_decoder<core::FraudProof>("FraudProof");
  fuzz_decoder<actors::ScaState>("ScaState");
  fuzz_decoder<actors::SaState>("SaState");
  fuzz_decoder<actors::RecoverParams>("RecoverParams");
  fuzz_decoder<consensus::WireMsg>("WireMsg");
  fuzz_decoder<consensus::QuorumCert>("QuorumCert");
  fuzz_decoder<runtime::ResolutionMsg>("ResolutionMsg");
  fuzz_decoder<runtime::SigShare>("SigShare");
}

TEST(CodecFuzz, TruncationsNeverCrashDecoders) {
  // Take a VALID encoded structure and decode every truncated prefix.
  core::SignedCheckpoint sc;
  sc.checkpoint.source = core::SubnetId::root().child(Address::id(100));
  sc.checkpoint.epoch = 42;
  sc.checkpoint.proof = Cid::of(CidCodec::kBlock, to_bytes("b"));
  core::CrossMsgMeta meta;
  meta.from = sc.checkpoint.source;
  meta.to = core::SubnetId::root();
  meta.msgs_cid = Cid::of(CidCodec::kCrossMsgs, to_bytes("m"));
  meta.value = TokenAmount::whole(3);
  sc.checkpoint.cross_meta.push_back(meta);
  sc.add_signature(crypto::KeyPair::from_label("fuzz"));
  const Bytes full = encode(sc);

  for (std::size_t len = 0; len < full.size(); ++len) {
    Bytes prefix(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode<core::SignedCheckpoint>(prefix).ok()) << len;
  }
  EXPECT_TRUE(decode<core::SignedCheckpoint>(full).ok());
}

TEST(CodecFuzz, BitflipsAreDetectedOrDecodeDifferently) {
  // A bitflip either fails to decode or decodes to a DIFFERENT value; it
  // must never silently decode back to the original.
  core::CrossMsg m;
  m.from_subnet = core::SubnetId::root().child(Address::id(100));
  m.to_subnet = core::SubnetId::root();
  m.msg.from = Address::id(7);
  m.msg.to = Address::id(8);
  m.msg.value = TokenAmount::whole(5);
  m.nonce = 9;
  const Bytes full = encode(m);

  sim::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    Bytes mutated = full;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(8));
    auto out = decode<core::CrossMsg>(mutated);
    if (out.ok()) {
      EXPECT_FALSE(out.value() == m);
    }
  }
}

/// Randomized round-trip: build a random ScaState and check exact codec
/// round-trip (the SCA state is the most complex structure in the system).
TEST(CodecFuzz, RandomizedScaStateRoundTrips) {
  sim::Rng rng(4242);
  for (int round = 0; round < 25; ++round) {
    actors::ScaState s;
    s.self = core::SubnetId::root().child(Address::id(100 + rng.uniform(5)));
    s.checkpoint_period = static_cast<std::uint32_t>(1 + rng.uniform(50));
    const int n_subnets = static_cast<int>(rng.uniform(4));
    for (int i = 0; i < n_subnets; ++i) {
      actors::SubnetEntry e;
      const Address sa = Address::id(200 + static_cast<std::uint64_t>(i));
      e.id = s.self.child(sa);
      e.sa = sa;
      e.collateral = TokenAmount::atto(static_cast<__int128>(rng.next() >> 1));
      e.circulating_supply = TokenAmount::whole(
          static_cast<std::int64_t>(rng.uniform(1000)));
      e.topdown_nonce = rng.next();
      if (rng.chance(0.5)) {
        core::CrossMsg cm;
        cm.from_subnet = s.self;
        cm.to_subnet = e.id;
        cm.msg.value = TokenAmount::whole(1);
        cm.nonce = rng.uniform(100);
        e.topdown_queue.push_back(cm);
      }
      if (rng.chance(0.5)) {
        e.recovered.push_back(Address::key(random_blob(rng, 64)));
      }
      s.subnets.emplace(sa, std::move(e));
    }
    if (rng.chance(0.5)) {
      s.msg_registry[random_blob(rng, 32)] = random_blob(rng, 64);
    }
    if (rng.chance(0.3)) {
      actors::AtomicExec exec;
      exec.id = s.next_exec_id++;
      exec.parties.push_back(actors::AtomicParty{s.self, Address::id(5)});
      exec.parties.push_back(
          actors::AtomicParty{core::SubnetId::root(), Address::id(6)});
      exec.input_cids = {Cid::of(CidCodec::kActorState, random_blob(rng, 8)),
                         Cid::of(CidCodec::kActorState, random_blob(rng, 8))};
      exec.outputs.assign(2, Cid());
      s.atomic_execs.emplace(exec.id, std::move(exec));
    }
    auto out = decode<actors::ScaState>(encode(s));
    ASSERT_TRUE(out.ok()) << round;
    EXPECT_EQ(out.value(), s) << round;
  }
}

}  // namespace
}  // namespace hc

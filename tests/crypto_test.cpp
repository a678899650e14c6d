// Unit tests for the crypto module: U256 arithmetic, secp256k1 curve ops,
// Schnorr signatures and Merkle trees. The field, scalar and curve code is
// checked differentially against slow textbook arithmetic kept here, and
// signing is pinned by known-answer vectors.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/ec.hpp"
#include "crypto/keytable.hpp"
#include "crypto/merkle.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sigcache.hpp"
#include "crypto/u256.hpp"
#include "obs/obs.hpp"

namespace hc::crypto {
namespace {

// ---------------------------------------------------------------- U256

TEST(U256, BytesRoundTrip) {
  const auto bytes = *from_hex(
      "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  const U256 v = U256::from_be_bytes(bytes);
  EXPECT_EQ(v.to_be_bytes(), bytes);
  EXPECT_EQ(v.to_hex(),
            "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
}

TEST(U256, AddCarryPropagation) {
  U256 max = U256::from_limbs_be(~0ull, ~0ull, ~0ull, ~0ull);
  EXPECT_EQ(max.add_with_carry(U256(1)), 1u);  // wraps to zero with carry
  EXPECT_TRUE(max.is_zero());
}

TEST(U256, SubBorrowPropagation) {
  U256 zero;
  EXPECT_EQ(zero.sub_with_borrow(U256(1)), 1u);
  EXPECT_EQ(zero, U256::from_limbs_be(~0ull, ~0ull, ~0ull, ~0ull));
}

TEST(U256, Comparison) {
  const U256 small(5);
  const U256 big = U256::from_limbs_be(1, 0, 0, 0);
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_EQ(small, U256(5));
}

TEST(U256, TopBitAndBit) {
  EXPECT_EQ(U256().top_bit(), -1);
  EXPECT_EQ(U256(1).top_bit(), 0);
  EXPECT_EQ(U256(0x80).top_bit(), 7);
  const U256 high = U256::from_limbs_be(0x8000000000000000ull, 0, 0, 0);
  EXPECT_EQ(high.top_bit(), 255);
  EXPECT_TRUE(high.bit(255));
  EXPECT_FALSE(high.bit(254));
}

TEST(U256, MulWideSmall) {
  auto w = mul_wide(U256(7), U256(6));
  EXPECT_EQ(w.lo, U256(42));
  EXPECT_TRUE(w.hi.is_zero());
}

TEST(U256, MulWideFull) {
  // (2^256 - 1)^2 = 2^512 - 2^257 + 1 → lo = 1, hi = 2^256 - 2 (i.e. ...fffe)
  const U256 max = U256::from_limbs_be(~0ull, ~0ull, ~0ull, ~0ull);
  auto w = mul_wide(max, max);
  EXPECT_EQ(w.lo, U256(1));
  EXPECT_EQ(w.hi, U256::from_limbs_be(~0ull, ~0ull, ~0ull, ~0ull - 1));
}

// ------------------------------------------------ slow reference arithmetic
// Textbook modular arithmetic built only from U256's carry chains: a
// shift-add multiply and a square-and-multiply power. The folded
// reductions in ec.cpp are checked against these.

U256 ref_reduce(U256 a, const U256& m) {
  while (a >= m) a.sub_with_borrow(m);
  return a;
}

U256 ref_add(const U256& a, const U256& b, const U256& m) {
  U256 r = a;
  if (r.add_with_carry(b) != 0 || r >= m) r.sub_with_borrow(m);
  return r;
}

U256 ref_sub(const U256& a, const U256& b, const U256& m) {
  U256 r = a;
  if (r.sub_with_borrow(b) != 0) r.add_with_carry(m);
  return r;
}

U256 ref_mul(const U256& a, const U256& b, const U256& m) {
  const U256 aa = ref_reduce(a, m);
  U256 acc;
  for (int i = 255; i >= 0; --i) {
    acc = ref_add(acc, acc, m);
    if (b.bit(i)) acc = ref_add(acc, aa, m);
  }
  return acc;
}

U256 ref_pow(const U256& a, const U256& e, const U256& m) {
  U256 acc(1);
  for (int i = e.top_bit(); i >= 0; --i) {
    acc = ref_mul(acc, acc, m);
    if (e.bit(i)) acc = ref_mul(acc, a, m);
  }
  return acc;
}

U256 minus(const U256& m, std::uint64_t k) { return m - U256(k); }

constexpr U256 kAllOnes = U256::from_limbs_be(~0ull, ~0ull, ~0ull, ~0ull);

/// Seeded 256-bit values whose limbs are uniformly random, zero or all
/// ones, so the carry chains see their edge cases too.
std::vector<U256> random_values(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto limb = [&rng]() -> std::uint64_t {
    switch (rng() % 8) {
      case 0: return 0;
      case 1: return ~0ull;
      default: return rng();
    }
  };
  std::vector<U256> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t a = limb();
    const std::uint64_t b = limb();
    const std::uint64_t c = limb();
    out.push_back(U256::from_limbs_be(a, b, c, limb()));
  }
  return out;
}

/// Edge operands below m: 0, 1, 2, m-1, m-2, and values next to limb and
/// half boundaries and next to 2^256.
std::vector<U256> edge_values(const U256& m) {
  std::vector<U256> out = {
      U256(),
      U256(1),
      U256(2),
      U256(0x1000003D1ull),
      U256(~0ull),
      U256::from_limbs_be(0, 0, 1, 0),
      U256::from_limbs_be(0, 1, 0, 0),
      U256::from_limbs_be(0, 0, ~0ull, ~0ull),
      U256::from_limbs_be(1ull << 63, 0, 0, 0),
      U256::from_limbs_be((1ull << 63) - 1, ~0ull, ~0ull, ~0ull),
      minus(m, 1),
      minus(m, 2),
      minus(m, 0x1000003D1ull),
      kAllOnes - m,
  };
  for (U256& v : out) v = ref_reduce(v, m);
  return out;
}

/// edge_values plus `count` seeded random values, all reduced below m.
std::vector<U256> operands(const U256& m, std::size_t count,
                           std::uint64_t seed) {
  std::vector<U256> out = edge_values(m);
  for (const U256& v : random_values(count, seed)) out.push_back(ref_reduce(v, m));
  return out;
}

/// Every pair of edge values, then `count` seeded random pairs.
std::vector<std::pair<U256, U256>> operand_pairs(const U256& m,
                                                 std::size_t count,
                                                 std::uint64_t seed) {
  std::vector<std::pair<U256, U256>> out;
  for (const U256& a : edge_values(m)) {
    for (const U256& b : edge_values(m)) out.emplace_back(a, b);
  }
  const std::vector<U256> xs = random_values(count, seed);
  const std::vector<U256> ys = random_values(count, seed + 1);
  for (std::size_t i = 0; i < count; ++i) {
    out.emplace_back(ref_reduce(xs[i], m), ref_reduce(ys[i], m));
  }
  return out;
}

// ---------------------------------------------------------------- field

TEST(Field, AddSubInverse) {
  const U256 a(12345);
  const U256 b(67890);
  EXPECT_EQ(fp::sub(fp::add(a, b), b), a);
  EXPECT_EQ(fp::sub(a, a), U256());
  // Wraparound: (p - 1) + 2 == 1 (mod p)
  U256 pm1 = fp::P();
  pm1.sub_with_borrow(U256(1));
  EXPECT_EQ(fp::add(pm1, U256(2)), U256(1));
}

TEST(Field, MulMatchesRepeatedAdd) {
  const U256 a(0xdeadbeef);
  U256 sum;
  for (int i = 0; i < 1000; ++i) sum = fp::add(sum, a);
  EXPECT_EQ(fp::mul(a, U256(1000)), sum);
}

TEST(Field, FermatInverse) {
  for (std::uint64_t v : {1ull, 2ull, 977ull, 0xffffffffull}) {
    const U256 a(v);
    EXPECT_EQ(fp::mul(a, fp::inv(a)), U256(1)) << v;
  }
}

TEST(Field, InverseMatchesFermatReference) {
  // The addition chain must compute exactly a^(p-2).
  const U256& p = fp::P();
  for (const U256& a : edge_values(p)) {
    if (a.is_zero()) continue;
    EXPECT_EQ(fp::inv(a), ref_pow(a, minus(p, 2), p)) << a.to_hex();
  }
  EXPECT_EQ(ref_pow(U256(7), minus(p, 1), p), U256(1));
}

TEST(Field, MatchesSlowReference) {
  const U256& p = fp::P();
  for (const auto& [a, b] : operand_pairs(p, 10000, 1)) {
    ASSERT_EQ(fp::mul(a, b), ref_mul(a, b, p)) << a.to_hex() << " " << b.to_hex();
    ASSERT_EQ(fp::add(a, b), ref_add(a, b, p)) << a.to_hex() << " " << b.to_hex();
    ASSERT_EQ(fp::sub(a, b), ref_sub(a, b, p)) << a.to_hex() << " " << b.to_hex();
  }
  for (const U256& a : operands(p, 10000, 3)) {
    ASSERT_EQ(fp::sqr(a), ref_mul(a, a, p)) << a.to_hex();
    ASSERT_EQ(fp::neg(a), ref_sub(U256(), a, p)) << a.to_hex();
    if (!a.is_zero()) {
      ASSERT_EQ(ref_mul(a, fp::inv(a), p), U256(1)) << a.to_hex();
    }
  }
}

TEST(Field, ReduceAnyValue) {
  const U256& p = fp::P();
  for (const U256& v : random_values(1000, 4)) {
    ASSERT_EQ(fp::reduce(v), ref_reduce(v, p)) << v.to_hex();
  }
  EXPECT_EQ(fp::reduce(p), U256());
  EXPECT_EQ(fp::reduce(kAllOnes), U256(0x1000003D0ull));
}

TEST(Scalar, AddMulBasics) {
  const U256 a(1000);
  const U256 b(2000);
  EXPECT_EQ(fn::add(a, b), U256(3000));
  EXPECT_EQ(fn::mul(a, b), U256(2000000));
  // n - 1 + 2 == 1 (mod n)
  U256 nm1 = fn::N();
  nm1.sub_with_borrow(U256(1));
  EXPECT_EQ(fn::add(nm1, U256(2)), U256(1));
  EXPECT_EQ(fn::sub(U256(1), U256(2)), nm1);
}

TEST(Scalar, MatchesSlowReference) {
  const U256& n = fn::N();
  for (const auto& [a, b] : operand_pairs(n, 10000, 5)) {
    ASSERT_EQ(fn::mul(a, b), ref_mul(a, b, n)) << a.to_hex() << " " << b.to_hex();
    ASSERT_EQ(fn::add(a, b), ref_add(a, b, n)) << a.to_hex() << " " << b.to_hex();
    ASSERT_EQ(fn::sub(a, b), ref_sub(a, b, n)) << a.to_hex() << " " << b.to_hex();
  }
  // mul and reduce take any 256-bit operand, canonical or not.
  for (const U256& v : random_values(1000, 7)) {
    ASSERT_EQ(fn::reduce(v), ref_reduce(v, n)) << v.to_hex();
    ASSERT_EQ(fn::mul(v, kAllOnes), ref_mul(v, kAllOnes, n)) << v.to_hex();
    ASSERT_EQ(fn::mul(kAllOnes, v), ref_mul(kAllOnes, v, n)) << v.to_hex();
  }
  EXPECT_EQ(fn::mul(n, kAllOnes), U256());
}

TEST(Scalar, LambdaSplitRecombines) {
  const U256& n = fn::N();
  const U256& lambda = fn::lambda();
  // λ is a non-trivial cube root of unity.
  EXPECT_NE(lambda, U256(1));
  EXPECT_EQ(ref_mul(ref_mul(lambda, lambda, n), lambda, n), U256(1));
  std::vector<U256> ks = operands(n, 10000, 8);
  ks.push_back(lambda);
  ks.push_back(minus(n, 1));
  for (const U256& k : ks) {
    const fn::LambdaSplit s = fn::split_lambda(k);
    ASSERT_LT(s.k1.top_bit(), 129) << k.to_hex();
    ASSERT_LT(s.k2.top_bit(), 129) << k.to_hex();
    const U256 k1 = s.k1_neg ? ref_sub(U256(), s.k1, n) : s.k1;
    const U256 k2 = s.k2_neg ? ref_sub(U256(), s.k2, n) : s.k2;
    ASSERT_EQ(ref_add(k1, ref_mul(k2, lambda, n), n), k) << k.to_hex();
  }
}

// ---------------------------------------------------------------- curve

TEST(Curve, GeneratorOnCurve) {
  const auto g = Point::generator().to_affine();
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(Point::is_on_curve(g->x, g->y));
}

TEST(Curve, KnownScalarMultiple) {
  // 2*G, standard secp256k1 test vector.
  const auto p2 = Point::generator().mul(U256(2)).to_affine();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(p2->y.to_hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Curve, DoubleEqualsAdd) {
  const Point& g = Point::generator();
  EXPECT_TRUE(g.doubled().equals(g.add(g)));
  EXPECT_TRUE(g.mul(U256(3)).equals(g.doubled().add(g)));
}

TEST(Curve, MulDistributes) {
  const Point& g = Point::generator();
  // (a + b)G == aG + bG
  const U256 a(123456789);
  const U256 b(987654321);
  EXPECT_TRUE(g.mul(fn::add(a, b)).equals(g.mul(a).add(g.mul(b))));
}

/// k * p by plain double-and-add, most significant bit first.
Point ref_point_mul(const Point& p, const U256& k) {
  Point acc;
  for (int i = k.top_bit(); i >= 0; --i) {
    acc = acc.doubled();
    if (k.bit(i)) acc = acc.add(p);
  }
  return acc;
}

TEST(Curve, GlvMulMatchesDoubleAndAdd) {
  const U256& n = fn::N();
  std::vector<U256> ks = edge_values(n);
  ks.push_back(fn::lambda());
  for (const U256& v : random_values(24, 9)) ks.push_back(v);
  const std::vector<Point> bases = {
      Point::generator(), Point::mul_generator(U256(0xC0FFEEull)),
      Point::mul_generator(random_values(1, 10)[0])};
  for (const Point& base : bases) {
    for (const U256& k : ks) {
      EXPECT_TRUE(base.mul(k).equals(ref_point_mul(base, ref_reduce(k, n))))
          << k.to_hex();
    }
  }
}

TEST(Curve, OrderAnnihilates) {
  EXPECT_TRUE(Point::generator().mul(fn::N()).is_infinity());
}

TEST(Curve, InfinityIsIdentity) {
  const Point inf;
  const Point& g = Point::generator();
  EXPECT_TRUE(inf.add(g).equals(g));
  EXPECT_TRUE(g.add(inf).equals(g));
  EXPECT_TRUE(inf.is_infinity());
  EXPECT_TRUE(inf.doubled().is_infinity());
}

TEST(Curve, AddInverseGivesInfinity) {
  const Point& g = Point::generator();
  const auto ga = g.to_affine();
  ASSERT_TRUE(ga.has_value());
  const Point neg_g = Point::from_affine(ga->x, fp::sub(U256(), ga->y));
  EXPECT_TRUE(g.add(neg_g).is_infinity());
}

// ---------------------------------------------------------------- schnorr

TEST(Schnorr, SignVerifyRoundTrip) {
  const KeyPair kp = KeyPair::from_label("validator-0");
  const Bytes msg = to_bytes("checkpoint for /root/f0101 at epoch 42");
  const Signature sig = kp.sign(msg);
  EXPECT_TRUE(verify(kp.public_key(), msg, sig));
}

TEST(Schnorr, RejectsWrongMessage) {
  const KeyPair kp = KeyPair::from_label("validator-0");
  const Signature sig = kp.sign(to_bytes("message A"));
  EXPECT_FALSE(verify(kp.public_key(), to_bytes("message B"), sig));
}

/// Give `pub` its KeyTable now (a second sighting builds one), so verify
/// takes the table path for it from here on.
void warm_table(const PublicKey& pub) {
  (void)KeyTableCache::instance().lookup(pub);
  ASSERT_NE(KeyTableCache::instance().lookup(pub), nullptr);
}

/// The label with a suffix on the warm pass, so the cold pass's keys are
/// seen there for the first time.
std::string pass_label(const std::string& label, bool warm) {
  return warm ? label + "-warm" : label;
}

TEST(Schnorr, RejectsWrongKey) {
  // First-sight keys, then keys whose tables are warm.
  for (const bool warm : {false, true}) {
    const KeyPair alice = KeyPair::from_label(pass_label("alice", warm));
    const KeyPair bob = KeyPair::from_label(pass_label("bob", warm));
    if (warm) {
      warm_table(alice.public_key());
      warm_table(bob.public_key());
    }
    const Bytes msg = to_bytes("message");
    EXPECT_FALSE(verify(bob.public_key(), msg, alice.sign(msg))) << warm;
    EXPECT_TRUE(verify(alice.public_key(), msg, alice.sign(msg))) << warm;
  }
}

TEST(Schnorr, RejectsTamperedSignature) {
  const KeyPair kp = KeyPair::from_label("validator-1");
  const Bytes msg = to_bytes("message");
  const Signature sig = kp.sign(msg);
  Bytes raw = sig.to_bytes();
  raw[95] ^= 1;  // flip a bit in s
  auto tampered = Signature::from_bytes(raw);
  ASSERT_TRUE(tampered.ok());
  EXPECT_FALSE(verify(kp.public_key(), msg, tampered.value()));
}

TEST(Schnorr, DeterministicSigning) {
  const KeyPair kp = KeyPair::from_label("validator-2");
  const Bytes msg = to_bytes("message");
  EXPECT_EQ(kp.sign(msg), kp.sign(msg));
}

TEST(Schnorr, DistinctSeedsDistinctKeys) {
  EXPECT_NE(KeyPair::from_label("a").public_key(),
            KeyPair::from_label("b").public_key());
}

TEST(Schnorr, PublicKeySerializationRoundTrip) {
  const KeyPair kp = KeyPair::from_label("serialize-me");
  auto pk = PublicKey::from_bytes(kp.public_key().to_bytes());
  ASSERT_TRUE(pk.ok());
  EXPECT_EQ(pk.value(), kp.public_key());
}

TEST(Schnorr, PublicKeyRejectsOffCurvePoint) {
  Bytes junk(64, 0x42);
  EXPECT_FALSE(PublicKey::from_bytes(junk).ok());
}

TEST(Schnorr, SignatureRejectsBadLength) {
  EXPECT_FALSE(Signature::from_bytes(Bytes(95, 0)).ok());
}

/// (label, message) -> public key and signature, recorded from the
/// original shift-add/modexp implementation. Signing is deterministic, so
/// any correct arithmetic reproduces them byte for byte.
struct KnownAnswer {
  const char* label;
  const char* message;
  const char* pubkey_hex;
  const char* sig_hex;
};

constexpr KnownAnswer kKnownAnswers[] = {
    {"validator-0", "checkpoint for subnet f0101 at epoch 42",
     "6c6e07fc87e427cd957077036441de4ade95f934a9a7ba84b408d7575e04e89a"
     "0c0dae9b2505044b76c1d912ededa220a5777c2dc262345a94d2a47b147a2898",
     "56ebe5a0c14a77ce0b0c290ab93e0c58247feb1def32dff855d63e9a32cb94f9"
     "8583332fa30051c586c1ed3c9919e837857d2c3735a70d0eec0bc7ecbc8ce950"
     "98c09e4f5afef450ef577004fcbab965c936d926eed80d1b42b28b9a54f9c5e5"},
    {"alice", "transfer 100 to bob",
     "63375d4f261e12ad199d9207ad015445886b0ff54dcd6d454b288d26641fb640"
     "536698ac7444c2c5034bb5c7d06e86ea5d21e05a0b0d720bf948a1ea29ddb000",
     "c6f4c5c67fb3752fe0c3339cd6cb398c0c9115d77910fd97b2d57505e4610b8d"
     "d91f8d7e43a475f5f3a84c1be6527c01f5b353c95f4cafa743b6fe5f5dfeb00c"
     "287013ec91fa86257ca11a278fd39d69ff6d2adc245914844ac157d7c9edf7a6"},
    {"bob", "",
     "9f9c25cf3e1df3f44f0d5ff36fe8772112fc014298861281a80ecaac561a1fe8"
     "db0657bbb6f59219b8a581585655de236a332736cc628b58016d3066c8f5cd5a",
     "3edf90bc5be66b00c1c98aff7bccc019a825ab1c2edc8516fcd3fc9e1391eda2"
     "cf810c2edd6d859fb15a8e4e771b50feff54e484d8f85ff4a9a3a3bb50238ad8"
     "171bc9e3fd1a086b56c065d42acf6f32209054800557dc7d44522bb5867aa6cc"},
    {"serialize-me", "message",
     "464a2eec27b0394ae39782f9e4a56c879bdfaeb12b44372f818956c209a2694f"
     "625e3d1210588b9b59fdc214c341ae69dcf83aa5ec32c7f05d72d8f0b495941a",
     "a6b61571b67d01182a86b5ea4aa796fbec19f5a0beb3469b824c49f062ee2b13"
     "079820e860c085882672e61f531bde6ce000c4bf9110638a57e63d8f103ce299"
     "89619a87cade68d6ece1fdcd4ec13cc17fc3ca413d76ad9bac3ef438d5022a8f"},
    {"kat-5", "the quick brown fox jumps over the lazy dog",
     "6ec398afcdbf47e3d2278535e586c026afcc74fd74b20beab55f5d0c0c556aa1"
     "2869445d1ab21d210926d1109a80269bb1cf1ea04aff84e890d0c3c0db748e3f",
     "b0e440ec6af40882fcdcd36c55f417a06445a95b0efed6aec6e3cbc98c48ee62"
     "8d1c2ad9934748b4f960f4513ec33d9f0f8a00464941e40af78d51f85b4e0b41"
     "b9ae3318750a734e3e82ec06104c3bb44a6581f4b2cb907a2d6b612dfe604be2"},
    {"kat-6", "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
     "e4af55617d9a706efc808dad654bafe1bfe2d89c9c115b8e69f25d1fcbb6557a"
     "52771c57bf6c27a98d3718a45711c5837b40255bc019dac10811f3d3937c38c9",
     "0ce59cc1abd0404ba143f62450a4c52fdf6a7bf05ff5e4bb20217b0ae4a6dea0"
     "ab805b109f0d654a6db1727d22810ce524f528c84336aad89184e7a3d1674207"
     "242c4e68b6d287c6cf27ea6df279c2d0a06c6cb38075974aaca77b01504d2e0f"},
};

TEST(Schnorr, KnownAnswerVectors) {
  for (const KnownAnswer& v : kKnownAnswers) {
    const KeyPair kp = KeyPair::from_label(v.label);
    const Bytes msg = to_bytes(v.message);
    EXPECT_EQ(to_hex(kp.public_key().to_bytes()), v.pubkey_hex) << v.label;
    const Signature sig = kp.sign(msg);
    EXPECT_EQ(to_hex(sig.to_bytes()), v.sig_hex) << v.label;
    EXPECT_TRUE(verify(kp.public_key(), msg, sig)) << v.label;
  }
}

TEST(Schnorr, TaggedHashKnownAnswer) {
  const Digest d = TaggedHash("hc/chal")({to_bytes("abc"), to_bytes("def")});
  EXPECT_EQ(to_hex(digest_view(d)),
            "cffa957e159a58aa53d76db26cf3ba25e64c7878cff3e45acbde7626677820d1");
}

TEST(Schnorr, VerifyRejectsEveryBitFlip) {
  for (int i = 0; i < 32; ++i) {
    // Keys 16..31 have their tables warm before the first verify.
    const bool warm = i >= 16;
    const KeyPair kp = KeyPair::from_label(
        pass_label("flip-" + std::to_string(i % 16), warm));
    if (warm) warm_table(kp.public_key());
    const Bytes msg = to_bytes("flip message " + std::to_string(i));
    const Signature sig = kp.sign(msg);
    ASSERT_TRUE(verify(kp.public_key(), msg, sig)) << i;
    // One bit of rx, ry or s (low and high byte of each).
    const auto raw = sig.to_array();
    for (std::size_t byte : {0u, 31u, 32u, 63u, 64u, 95u}) {
      auto flipped = raw;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_FALSE(verify(kp.public_key(), msg,
                          Signature::from_bytes(flipped).value()))
          << i << " byte " << byte;
    }
    // One bit of the message.
    Bytes other = msg;
    other[static_cast<std::size_t>(i) % other.size()] ^= 0x04;
    EXPECT_FALSE(verify(kp.public_key(), other, sig)) << i;
    // One bit of either key coordinate.
    const auto pk = kp.public_key().to_array();
    for (std::size_t byte : {7u, 40u}) {
      auto flipped = pk;
      flipped[byte] ^= 0x10;
      const PublicKey bad(U256::from_be_bytes(BytesView(flipped).subspan(0, 32)),
                          U256::from_be_bytes(BytesView(flipped).subspan(32, 32)));
      EXPECT_FALSE(verify(bad, msg, sig)) << i << " key byte " << byte;
    }
  }
}

TEST(Schnorr, RejectsNonCanonicalCoordinates) {
  // A curve point with a small x, so x + p still fits in 256 bits and
  // (x + p, y) is a second encoding of the same point once reduced.
  const U256& p = fp::P();
  const U256 sqrt_exp = U256::from_limbs_be(0x3FFFFFFFFFFFFFFFull, ~0ull, ~0ull,
                                            0xFFFFFFFFBFFFFF0Cull);  // (p+1)/4
  U256 x(1);
  U256 y;
  for (;; x = x + U256(1)) {
    const U256 rhs = ref_add(ref_pow(x, U256(3), p), U256(7), p);
    y = ref_pow(rhs, sqrt_exp, p);
    if (ref_mul(y, y, p) == rhs) break;
  }
  const U256 x_alias = x + p;
  EXPECT_TRUE(Point::is_on_curve(x, y));
  EXPECT_FALSE(Point::is_on_curve(x_alias, y));

  Bytes canonical = x.to_be_bytes();
  append(canonical, y.to_be_bytes());
  EXPECT_TRUE(PublicKey::from_bytes(canonical).ok());
  Bytes alias = x_alias.to_be_bytes();
  append(alias, y.to_be_bytes());
  EXPECT_FALSE(PublicKey::from_bytes(alias).ok());

  // verify refuses the aliased point as a key and as R, also once the
  // signer and the canonical point have tables.
  for (const bool warm : {false, true}) {
    const KeyPair kp = KeyPair::from_label(pass_label("canonical", warm));
    if (warm) {
      warm_table(kp.public_key());
      warm_table(PublicKey(x, y));
    }
    const Bytes msg = to_bytes("message");
    const Signature sig = kp.sign(msg);
    EXPECT_FALSE(verify(PublicKey(x_alias, y), msg, sig)) << warm;
    EXPECT_FALSE(verify(kp.public_key(), msg, Signature(x_alias, y, sig.s())))
        << warm;
  }
}

TEST(Schnorr, TaggedHashDomainSeparation) {
  const Bytes m = to_bytes("same input");
  EXPECT_NE(TaggedHash("tag-a")({m}), TaggedHash("tag-b")({m}));
}

// ------------------------------------------------------------- key tables

std::uint64_t key_table_counter(const char* name) {
  return obs::default_obs().metrics.counter(name).value();
}

/// Bases for the differential suites: G, a small multiple and a random one.
std::vector<Point> table_bases() {
  return {Point::generator(), Point::mul_generator(U256(0xC0FFEEull)),
          Point::mul_generator(random_values(1, 21)[0])};
}

TEST(KeyTable, MatchesPointMulOnEdgeScalars) {
  const U256& n = fn::N();
  std::vector<U256> ks = edge_values(n);  // 0, 1, n - 1, limb boundaries
  ks.push_back(U256::from_limbs_be(0, 0, ~0ull, ~0ull));  // 2^128 - 1
  ks.push_back(U256::from_limbs_be(0, 1, 0, 0));          // 2^128
  ks.push_back(fn::lambda());
  ks.push_back(kAllOnes);  // unreduced
  for (const Point& base : table_bases()) {
    const KeyTable table(base);
    for (const U256& k : ks) {
      EXPECT_TRUE(table.mul(k).equals(base.mul(k))) << k.to_hex();
    }
  }
}

TEST(KeyTable, MatchesPointMulWithNegativeHalves) {
  // Seeded scalars until every sign combination of the two GLV halves has
  // turned up four times.
  std::array<int, 4> found{};
  std::vector<U256> ks;
  for (const U256& v : random_values(4096, 22)) {
    const U256 k = ref_reduce(v, fn::N());
    const fn::LambdaSplit s = fn::split_lambda(k);
    int& count = found[static_cast<std::size_t>(s.k1_neg) * 2 + s.k2_neg];
    if (count < 4) {
      ++count;
      ks.push_back(k);
    }
  }
  ASSERT_EQ(ks.size(), 16u);
  for (const Point& base : table_bases()) {
    const KeyTable table(base);
    for (const U256& k : ks) {
      EXPECT_TRUE(table.mul(k).equals(base.mul(k))) << k.to_hex();
    }
  }
}

TEST(KeyTable, MatchesPointMulOnSeededScalars) {
  const Point base = Point::mul_generator(random_values(1, 23)[0]);
  const KeyTable table(base);
  for (const U256& k : random_values(10000, 24)) {
    ASSERT_TRUE(table.mul(k).equals(base.mul(k))) << k.to_hex();
  }
}

TEST(KeyTable, BuiltOnSecondSightingThenShared) {
  const PublicKey pub = KeyPair::from_label("table-sighting").public_key();
  const std::uint64_t builds =
      key_table_counter("crypto_key_table_builds_total");
  const std::uint64_t hits = key_table_counter("crypto_key_table_hits_total");
  KeyTableCache& cache = KeyTableCache::instance();
  EXPECT_EQ(cache.lookup(pub), nullptr);  // first sight: no table
  const std::shared_ptr<const KeyTable> built = cache.lookup(pub);
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(cache.lookup(pub), built);  // one table, shared
  EXPECT_EQ(key_table_counter("crypto_key_table_builds_total"), builds + 1);
  EXPECT_EQ(key_table_counter("crypto_key_table_hits_total"), hits + 1);
}

TEST(KeyTable, ConcurrentVerifyWhileBuilding) {
  // Four threads verify the same fresh keys in different orders, so first
  // sightings, builds and table hits of one key interleave across threads.
  struct Triple {
    PublicKey pub;
    Bytes msg;
    Signature sig;
    bool valid;
  };
  std::vector<Triple> triples;
  for (int k = 0; k < 6; ++k) {
    const KeyPair kp = KeyPair::from_label("concurrent-" + std::to_string(k));
    for (int m = 0; m < 6; ++m) {
      const Bytes msg = to_bytes("msg-" + std::to_string(m));
      Signature sig = kp.sign(msg);
      // Every third triple is verified against a message it never signed.
      const bool valid = m % 3 != 0;
      triples.push_back(Triple{kp.public_key(),
                               valid ? msg : to_bytes("other"), sig, valid});
    }
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&triples, &wrong, t] {
      for (std::size_t i = 0; i < triples.size(); ++i) {
        const Triple& x = triples[(i * 5 + t * 7) % triples.size()];
        if (verify(x.pub, x.msg, x.sig) != x.valid) ++wrong;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  for (const Triple& x : triples) {
    EXPECT_NE(KeyTableCache::instance().lookup(x.pub), nullptr);
  }
}

// ---------------------------------------------------------------- merkle

std::vector<Bytes> make_leaves(int n) {
  std::vector<Bytes> leaves;
  leaves.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    leaves.push_back(to_bytes("leaf-" + std::to_string(i)));
  }
  return leaves;
}

TEST(Merkle, EmptyTreeHasZeroRoot) {
  MerkleTree t({});
  EXPECT_EQ(t.root(), Digest{});
  EXPECT_EQ(t.leaf_count(), 0u);
}

TEST(Merkle, SingleLeaf) {
  const auto leaves = make_leaves(1);
  MerkleTree t(leaves);
  const auto proof = t.prove(0);
  EXPECT_TRUE(proof.empty());
  EXPECT_TRUE(MerkleTree::verify(t.root(), leaves[0], proof));
}

TEST(Merkle, RootChangesWithContent) {
  EXPECT_NE(MerkleTree::root_of(make_leaves(4)),
            MerkleTree::root_of(make_leaves(5)));
  auto leaves = make_leaves(4);
  const Digest before = MerkleTree::root_of(leaves);
  leaves[2][0] ^= 1;
  EXPECT_NE(before, MerkleTree::root_of(leaves));
}

TEST(Merkle, LeafVsNodeDomainSeparation) {
  // A single leaf whose content equals an interior-node preimage must not
  // produce the same root as the two-leaf tree.
  const auto two = make_leaves(2);
  MerkleTree t2(two);
  // Reconstruct what the interior preimage would look like as a leaf.
  Bytes fake;
  fake.push_back(0x01);
  MerkleTree t1({fake});
  EXPECT_NE(t1.root(), t2.root());
}

class MerkleProofSweep : public ::testing::TestWithParam<int> {};

TEST_P(MerkleProofSweep, AllLeavesProvable) {
  const int n = GetParam();
  const auto leaves = make_leaves(n);
  MerkleTree t(leaves);
  for (int i = 0; i < n; ++i) {
    const auto proof = t.prove(static_cast<std::size_t>(i));
    EXPECT_TRUE(MerkleTree::verify(t.root(), leaves[static_cast<std::size_t>(i)],
                                   proof))
        << "n=" << n << " i=" << i;
    // Proof must not verify a different leaf.
    EXPECT_FALSE(
        MerkleTree::verify(t.root(), to_bytes("not-a-leaf"), proof));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           33, 64, 100));

// ------------------------------------------------- incremental Merkle

std::vector<Digest> leaf_digests_of(const std::vector<Bytes>& leaves) {
  std::vector<Digest> digests;
  digests.reserve(leaves.size());
  for (const auto& leaf : leaves) digests.push_back(merkle_leaf_hash(leaf));
  return digests;
}

class IncrementalMerkleSweep : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalMerkleSweep, AssignMatchesBatchTree) {
  const int n = GetParam();
  const auto leaves = make_leaves(n);
  IncrementalMerkleTree inc;
  inc.assign(leaf_digests_of(leaves));
  EXPECT_EQ(inc.root(), MerkleTree::root_of(leaves));
  EXPECT_EQ(inc.leaf_count(), static_cast<std::size_t>(n));
}

TEST_P(IncrementalMerkleSweep, PointUpdatesMatchRebuild) {
  const int n = GetParam();
  auto leaves = make_leaves(n);
  IncrementalMerkleTree inc;
  inc.assign(leaf_digests_of(leaves));
  // Mutate every third leaf (always including the last: the promoted-node
  // path on odd layers) and update them in one sorted batch.
  std::vector<std::pair<std::size_t, Digest>> changes;
  for (int i = 0; i < n; i += 3) {
    leaves[static_cast<std::size_t>(i)].push_back(0xAB);
    changes.emplace_back(static_cast<std::size_t>(i),
                         merkle_leaf_hash(leaves[static_cast<std::size_t>(i)]));
  }
  if (n > 1 && (n - 1) % 3 != 0) {
    leaves[static_cast<std::size_t>(n - 1)].push_back(0xCD);
    changes.emplace_back(
        static_cast<std::size_t>(n - 1),
        merkle_leaf_hash(leaves[static_cast<std::size_t>(n - 1)]));
  }
  const std::uint64_t before = inc.node_hashes();
  inc.update(changes);
  EXPECT_EQ(inc.root(), MerkleTree::root_of(leaves)) << "n=" << n;
  if (n > 1) {
    // O(k log N) bound: each changed path is at most ceil(log2 n) nodes.
    std::size_t levels = 0;
    for (std::size_t width = static_cast<std::size_t>(n); width > 1;
         width = (width + 1) / 2) {
      ++levels;
    }
    EXPECT_LE(inc.node_hashes() - before, changes.size() * levels);
  }
}

TEST_P(IncrementalMerkleSweep, ProofsMatchBatchTree) {
  const int n = GetParam();
  const auto leaves = make_leaves(n);
  IncrementalMerkleTree inc;
  inc.assign(leaf_digests_of(leaves));
  MerkleTree batch(leaves);
  for (int i = 0; i < n; ++i) {
    const auto proof = inc.prove(static_cast<std::size_t>(i));
    EXPECT_EQ(proof, batch.prove(static_cast<std::size_t>(i)));
    EXPECT_TRUE(MerkleTree::verify(inc.root(),
                                   leaves[static_cast<std::size_t>(i)], proof))
        << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IncrementalMerkleSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           33, 64, 100));

TEST(IncrementalMerkle, EmptyAndReassign) {
  IncrementalMerkleTree inc;
  EXPECT_EQ(inc.root(), Digest{});
  EXPECT_EQ(inc.leaf_count(), 0u);
  const auto leaves = make_leaves(6);
  inc.assign(leaf_digests_of(leaves));
  EXPECT_EQ(inc.root(), MerkleTree::root_of(leaves));
  inc.assign({});
  EXPECT_EQ(inc.root(), Digest{});
  EXPECT_EQ(inc.leaf_count(), 0u);
}

TEST(IncrementalMerkle, SiblingUpdatesShareOneParentHash) {
  // Updating both children of one node must hash their shared ancestors
  // once, not twice: 8 leaves -> paths of 3, two sibling leaves share all
  // 3 interior nodes.
  auto leaves = make_leaves(8);
  IncrementalMerkleTree inc;
  inc.assign(leaf_digests_of(leaves));
  leaves[4].push_back(0x01);
  leaves[5].push_back(0x02);
  const std::uint64_t before = inc.node_hashes();
  inc.update({{4, merkle_leaf_hash(leaves[4])}, {5, merkle_leaf_hash(leaves[5])}});
  EXPECT_EQ(inc.node_hashes() - before, 3u);
  EXPECT_EQ(inc.root(), MerkleTree::root_of(leaves));
}

// ------------------------------------------------------------ sigcache

TEST(SigCache, MixedOutcomesAgreeWithScalarVerify) {
  std::vector<KeyPair> keys;
  std::vector<Bytes> msgs;
  std::vector<Signature> sigs;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(KeyPair::from_label("sigcache-" + std::to_string(i)));
    msgs.push_back(to_bytes("payload-" + std::to_string(i)));
    sigs.push_back(keys.back().sign(msgs.back()));
  }
  // Corrupt two entries: a flipped signature bit and a swapped message.
  Bytes raw = sigs[2].to_bytes();
  raw[95] ^= 1;
  sigs[2] = Signature::from_bytes(raw).value();
  msgs[5] = to_bytes("not-what-was-signed");

  for (std::size_t i = 0; i < 8; ++i) {
    const bool expected = (i != 2 && i != 5);
    EXPECT_EQ(verify_cached(keys[i].public_key(), msgs[i], sigs[i]), expected)
        << "entry " << i;
    // Cached outcomes must agree with the uncached path exactly.
    EXPECT_EQ(verify(keys[i].public_key(), msgs[i], sigs[i]), expected);
  }
}

TEST(SigCache, RepeatedTripleServedFromCache) {
  const KeyPair kp = KeyPair::from_label("sigcache-repeat");
  const Bytes msg = to_bytes("cached-once");
  const Signature sig = kp.sign(msg);
  ASSERT_TRUE(verify_cached(kp.public_key(), msg, sig));

  // Same triple again: the lookup must hit, so the process-wide miss count
  // stays put.
  const std::uint64_t misses = SigCache::instance().misses();
  EXPECT_TRUE(verify_cached(kp.public_key(), msg, sig));
  EXPECT_EQ(SigCache::instance().misses(), misses);
}

TEST(SigCache, NegativeOutcomesAreCachedToo) {
  const KeyPair kp = KeyPair::from_label("sigcache-neg");
  const Bytes msg = to_bytes("never-signed");
  Bytes raw = kp.sign(msg).to_bytes();
  raw[64] ^= 1;  // corrupt R
  const Signature bad = Signature::from_bytes(raw).value();
  ASSERT_FALSE(verify_cached(kp.public_key(), msg, bad));

  const std::uint64_t misses = SigCache::instance().misses();
  EXPECT_FALSE(verify_cached(kp.public_key(), msg, bad));
  EXPECT_EQ(SigCache::instance().misses(), misses);
}

TEST(SigCache, RotationAgesPromotesAndDrops) {
  // Made-up keys, all multiples of the shard count: they share one shard.
  // The high tag keeps them clear of the hash-derived keys other tests
  // store. Other tests may have left a few entries in this shard's hot map,
  // so each fill of kShardHotMax fresh keys rotates the shard exactly once.
  SigCache& cache = SigCache::instance();
  std::uint64_t next = 0x5eed000000000000ull;
  auto fresh = [&next] {
    next += SigCache::kShardCount;
    return next;
  };
  auto fill = [&] {
    for (std::size_t i = 0; i < SigCache::kShardHotMax; ++i) {
      cache.store(fresh(), true);
    }
  };
  bool result = false;
  const std::uint64_t touched = fresh();
  const std::uint64_t untouched = fresh();
  cache.store(touched, true);
  cache.store(untouched, false);

  // First rotation: both keys age into the cold map. A cold hit answers
  // and promotes the key back into the hot map.
  fill();
  ASSERT_TRUE(cache.lookup(touched, result));
  EXPECT_TRUE(result);
  const std::uint64_t late = fresh();
  cache.store(late, true);

  // Second rotation: the hot map (the promoted key, the late key) ages
  // into cold, and the old cold map goes with everything left untouched.
  fill();
  EXPECT_TRUE(cache.lookup(touched, result));
  EXPECT_TRUE(cache.lookup(late, result));
  EXPECT_FALSE(cache.lookup(untouched, result));
}

TEST(SigCache, ConcurrentVerifyCachedAgreesWithVerify) {
  // Four threads check the same valid and invalid triples in different
  // orders, so misses, stores, hot hits and cold promotions of one shard
  // interleave across threads under its lock.
  struct Triple {
    PublicKey pub;
    Bytes msg;
    Signature sig;
    bool valid;
  };
  std::vector<Triple> triples;
  for (int k = 0; k < 4; ++k) {
    const KeyPair kp =
        KeyPair::from_label("sigcache-concurrent-" + std::to_string(k));
    for (int m = 0; m < 6; ++m) {
      const Bytes msg = to_bytes("msg-" + std::to_string(m));
      // Every third triple is checked against a message it never signed.
      const bool valid = m % 3 != 0;
      triples.push_back(Triple{kp.public_key(),
                               valid ? msg : to_bytes("other"),
                               kp.sign(msg), valid});
    }
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&triples, &wrong, t] {
      for (std::size_t i = 0; i < 2 * triples.size(); ++i) {
        const Triple& x = triples[(i * 5 + t * 7) % triples.size()];
        if (verify_cached(x.pub, x.msg, x.sig) != x.valid) ++wrong;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  for (const Triple& x : triples) {
    EXPECT_EQ(verify(x.pub, x.msg, x.sig), x.valid);
  }
}

}  // namespace
}  // namespace hc::crypto

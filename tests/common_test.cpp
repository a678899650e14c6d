// Unit tests for the common vocabulary types: bytes/hex, codec round-trips,
// SHA-256 FIPS vectors, CIDs, addresses and token arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "common/address.hpp"
#include "common/bytes.hpp"
#include "common/cid.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/result.hpp"
#include "common/token.hpp"

namespace hc {
namespace {

// ---------------------------------------------------------------- bytes/hex

TEST(Bytes, HexRoundTrip) {
  const Bytes data{0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
  auto back = from_hex("0001abff");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Bytes, HexAccepts0xPrefixAndUppercase) {
  auto a = from_hex("0xDEADBEEF");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(to_hex(*a), "deadbeef");
}

TEST(Bytes, HexRejectsMalformed) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // non-hex
}

TEST(Bytes, ConcatAndAppend) {
  const Bytes a{1, 2};
  const Bytes b{3};
  Bytes c = concat({a, b});
  EXPECT_EQ(c, (Bytes{1, 2, 3}));
  append(c, a);
  EXPECT_EQ(c, (Bytes{1, 2, 3, 1, 2}));
}

TEST(Bytes, CtEqual) {
  EXPECT_TRUE(ct_equal(Bytes{1, 2}, Bytes{1, 2}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2}, Bytes{1, 3}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2}, Bytes{1, 2, 3}));
}

// ---------------------------------------------------------------- Result

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err = Error(Errc::kNotFound, "missing");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code(), Errc::kNotFound);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(Result, StatusSuccessAndError) {
  Status s = ok_status();
  EXPECT_TRUE(s.ok());
  Status e(Errc::kTimeout, "late");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.error().to_string(), "kTimeout: late");
}

// ---------------------------------------------------------------- codec

TEST(Codec, FixedWidthRoundTrip) {
  Encoder e;
  e.u8(0xab).u16(0x1234).u32(0xdeadbeef).u64(0x0123456789abcdefULL)
      .i64(-77).boolean(true);
  Decoder d(e.data());
  EXPECT_EQ(d.u8().value(), 0xab);
  EXPECT_EQ(d.u16().value(), 0x1234);
  EXPECT_EQ(d.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(d.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(d.i64().value(), -77);
  EXPECT_EQ(d.boolean().value(), true);
  EXPECT_TRUE(d.done());
}

TEST(Codec, VarintBoundaries) {
  const std::uint64_t cases[] = {
      0, 1, 127, 128, 300, 16383, 16384,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : cases) {
    Encoder e;
    e.varint(v);
    Decoder d(e.data());
    auto r = d.varint();
    ASSERT_TRUE(r.ok()) << v;
    EXPECT_EQ(r.value(), v);
    EXPECT_TRUE(d.done());
  }
}

TEST(Codec, BytesAndStrings) {
  Encoder e;
  e.bytes(Bytes{9, 8, 7}).str("hello");
  Decoder d(e.data());
  EXPECT_EQ(d.bytes().value(), (Bytes{9, 8, 7}));
  EXPECT_EQ(d.str().value(), "hello");
}

TEST(Codec, TruncatedInputFailsCleanly) {
  Encoder e;
  e.u64(12345);
  Bytes data = e.data();
  data.pop_back();
  Decoder d(data);
  EXPECT_FALSE(d.u64().ok());
}

TEST(Codec, BytesLengthOverrunRejected) {
  Encoder e;
  e.varint(1000);  // claims 1000 bytes follow, but none do
  Decoder d(e.data());
  EXPECT_FALSE(d.bytes().ok());
}

TEST(Codec, NonMinimalVarintRejected) {
  // Regression (found by fuzzing): 0x80 0x00 would decode as 0, giving two
  // encodings for the same value and breaking content-address injectivity.
  const Bytes padded{0x80, 0x00};
  Decoder d(padded);
  EXPECT_FALSE(d.varint().ok());
  const Bytes minimal{0x00};
  Decoder d2(minimal);
  EXPECT_TRUE(d2.varint().ok());
}

TEST(Codec, BooleanRejectsJunk) {
  Bytes data{7};
  Decoder d(data);
  EXPECT_FALSE(d.boolean().ok());
}

struct Pair {
  std::uint64_t a = 0;
  std::string b;
  void encode_to(Encoder& e) const { e.varint(a).str(b); }
  static Result<Pair> decode_from(Decoder& d) {
    Pair p;
    HC_TRY(a, d.varint());
    HC_TRY(b, d.str());
    p.a = a;
    p.b = std::move(b);
    return p;
  }
  bool operator==(const Pair&) const = default;
};

TEST(Codec, ObjectVectorRoundTrip) {
  std::vector<Pair> in{{1, "x"}, {2, "y"}, {300, "zzz"}};
  Encoder e;
  e.vec(in);
  Decoder d(e.data());
  auto out = d.vec<Pair>();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), in);
}

TEST(Codec, VectorCountGuard) {
  Encoder e;
  e.varint(1u << 21);  // over the default 2^20 cap
  Decoder d(e.data());
  EXPECT_FALSE(d.vec<Pair>().ok());
}

// A count the input cannot hold fails before anything is reserved: a blob
// that is only varint(2^20) would otherwise reserve 2^20 elements.
TEST(Codec, VectorCountBoundedByInput) {
  const Bytes blob = encode_varint(1u << 20);
  Decoder d(blob);
  auto r = d.vec<Pair>();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message(), "count exceeds input");
}

TEST(Codec, MapCountBoundedByInput) {
  const Bytes blob = encode_varint(2);
  Decoder d(blob);
  FieldReader r(d);
  std::map<std::uint64_t, Bytes> m;
  r.map(m, 16);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().error().message(), "count exceeds input");
}

// ------------------------------------------------- codec encode modes

TEST(Codec, SizerMatchesOwnedEncoding) {
  std::vector<Pair> in;
  for (std::uint64_t i = 0; i < 100; ++i) {
    in.push_back({i * 12345, std::string(i % 17, 'p')});
  }
  Encoder owned;
  owned.vec(in);
  Encoder sizer = Encoder::sizer();
  sizer.vec(in);
  EXPECT_EQ(sizer.size(), owned.data().size());
}

TEST(Codec, ExternalBufferProducesIdenticalBytes) {
  const Pair p{0xdeadbeef, "external-mode"};
  const Bytes owned = encode(p);
  Bytes ext(encoded_size(p));
  Encoder e(ext.data(), ext.size());
  e.obj(p);
  EXPECT_EQ(e.size(), ext.size());
  EXPECT_EQ(ext, owned);
}

TEST(Codec, TwoPassEncodeNeverReallocates) {
  std::vector<Pair> in;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    in.push_back({i, std::string(i % 31, 'q')});
  }
  struct Wrapper {
    const std::vector<Pair>* v;
    void encode_to(Encoder& e) const { e.vec(*v); }
  };
  const std::uint64_t before = codec_realloc_count().load();
  const Bytes out = encode(Wrapper{&in});
  EXPECT_EQ(codec_realloc_count().load(), before);
  Decoder d(out);
  auto back = d.vec<Pair>();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), in);
}

// ---------------------------------------------------------------- SHA-256

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(digest_view(Sha256::hash(Bytes{}))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(digest_view(Sha256::hash(to_bytes("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(digest_view(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(digest_view(h.finalize())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("hierarchical consensus scales blockchains");
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); ++i) {
    h.update(BytesView(&data[i], 1));
  }
  EXPECT_EQ(h.finalize(), Sha256::hash(data));
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths straddling the 55/56/64-byte padding edge cases must not crash
  // and must differ pairwise.
  std::vector<Digest> digests;
  for (std::size_t n : {54u, 55u, 56u, 57u, 63u, 64u, 65u}) {
    digests.push_back(Sha256::hash(Bytes(n, 0x5a)));
  }
  for (std::size_t i = 0; i < digests.size(); ++i) {
    for (std::size_t j = i + 1; j < digests.size(); ++j) {
      EXPECT_NE(digests[i], digests[j]);
    }
  }
}

// Both compression kernels against the FIPS 180-4 vectors above: the
// portable one always, SHA-NI where this CPU has it.
void expect_fips_vectors(Sha256::Kernel kernel) {
  const auto hex = [&](const Bytes& data) {
    Sha256 h(kernel);
    h.update(data);
    return to_hex(digest_view(h.finalize()));
  };
  EXPECT_EQ(hex(Bytes{}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex(Bytes(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, PortableKernelMatchesFipsVectors) {
  expect_fips_vectors(Sha256::portable_kernel());
}

TEST(Sha256, ShaNiKernelMatchesFipsVectors) {
  if (Sha256::shani_kernel() == nullptr) {
    GTEST_SKIP() << "CPU lacks SHA-NI/SSE4.1; only the portable kernel runs";
  }
  expect_fips_vectors(Sha256::shani_kernel());
}

TEST(Sha256, DispatchPrefersShaNi) {
  const Sha256::Kernel expected = Sha256::shani_kernel() != nullptr
                                      ? Sha256::shani_kernel()
                                      : Sha256::portable_kernel();
  EXPECT_EQ(Sha256::dispatched_kernel(), expected);
}

TEST(Sha256, DispatchedMatchesPortableAcrossLengthsAndSplits) {
  // Seeded differential: every length 0..4 KiB, fed to the dispatched
  // hasher in random-sized update() pieces and to the portable one whole.
  std::mt19937_64 rng(0x5a256);
  Bytes data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const BytesView msg(data.data(), len);
    Sha256 portable(Sha256::portable_kernel());
    portable.update(msg);
    Sha256 dispatched;
    std::size_t off = 0;
    while (off < len) {
      const std::size_t piece = std::min<std::size_t>(len - off, rng() % 200);
      dispatched.update(msg.subspan(off, piece));
      off += piece;
    }
    ASSERT_EQ(dispatched.finalize(), portable.finalize()) << "length " << len;
  }
}

// ---------------------------------------------------------------- CID

TEST(Cid, ContentAddressing) {
  const Bytes content = to_bytes("some content");
  Cid a = Cid::of(CidCodec::kRaw, content);
  Cid b = Cid::of(CidCodec::kRaw, content);
  Cid c = Cid::of(CidCodec::kCheckpoint, content);  // same bytes, other codec
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, Cid::of(CidCodec::kRaw, to_bytes("other content")));
}

TEST(Cid, NullSentinel) {
  Cid null;
  EXPECT_TRUE(null.is_null());
  EXPECT_FALSE(Cid::of(CidCodec::kRaw, to_bytes("x")).is_null());
}

TEST(Cid, CodecRoundTrip) {
  Cid in = Cid::of(CidCodec::kBlock, to_bytes("block"));
  auto out = decode<Cid>(encode(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), in);
}

TEST(Cid, DecodeRejectsUnknownCodec) {
  Bytes data(33, 0);
  data[0] = 250;
  EXPECT_FALSE(decode<Cid>(data).ok());
}

TEST(Cid, HashUsableInUnorderedContainers) {
  std::hash<Cid> h;
  Cid a = Cid::of(CidCodec::kRaw, to_bytes("a"));
  Cid b = Cid::of(CidCodec::kRaw, to_bytes("b"));
  EXPECT_NE(h(a), h(b));  // overwhelmingly likely for a real hash
}

// ---------------------------------------------------------------- Address

TEST(Address, IdAddress) {
  Address a = Address::id(65);
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(a.is_id());
  EXPECT_EQ(a.actor_id(), 65u);
  EXPECT_EQ(a.to_string(), "f065");
}

TEST(Address, KeyAddressFromPubkey) {
  Address a = Address::key(to_bytes("pubkey-1"));
  Address b = Address::key(to_bytes("pubkey-1"));
  Address c = Address::key(to_bytes("pubkey-2"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.to_string().substr(0, 2), "f1");
}

TEST(Address, DefaultIsInvalid) {
  Address a;
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(a.to_string(), "<invalid>");
}

TEST(Address, CodecRoundTripAllKinds) {
  for (const Address& in :
       {Address{}, Address::id(1234), Address::key(to_bytes("pk"))}) {
    auto out = decode<Address>(encode(in));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), in);
  }
}

// ---------------------------------------------------------------- Token

TEST(Token, WholeAndAtto) {
  TokenAmount t = TokenAmount::whole(3);
  EXPECT_EQ(t.raw(), static_cast<__int128>(3) * TokenAmount::kAttoPerToken);
  EXPECT_EQ(t.whole_part(), 3);
  EXPECT_EQ(TokenAmount().raw(), 0);
  EXPECT_TRUE(TokenAmount().is_zero());
}

TEST(Token, Arithmetic) {
  TokenAmount a = TokenAmount::whole(5);
  TokenAmount b = TokenAmount::whole(2);
  EXPECT_EQ((a - b).whole_part(), 3);
  EXPECT_EQ((a + b).whole_part(), 7);
  EXPECT_EQ((-b).whole_part(), -2);
  EXPECT_TRUE((b - a).negative());
  EXPECT_LT(b, a);
}

TEST(Token, ScalarMultiply) {
  TokenAmount gas_price = TokenAmount::atto(100);
  EXPECT_EQ((gas_price * 250).raw(), 25000);
}

TEST(Token, OverflowThrows) {
  TokenAmount huge = TokenAmount::atto(
      (static_cast<__int128>(1) << 126) - 1 + (static_cast<__int128>(1) << 126));
  EXPECT_THROW({ auto r = huge + TokenAmount::atto(1); (void)r; },
               std::overflow_error);
  EXPECT_THROW({ auto r = huge * 2; (void)r; }, std::overflow_error);
  TokenAmount small = -huge;
  EXPECT_THROW({ auto r = small - TokenAmount::atto(2); (void)r; },
               std::overflow_error);
}

TEST(Token, ToStringFormatting) {
  EXPECT_EQ(TokenAmount::whole(12).to_string(), "12 tok");
  EXPECT_EQ(TokenAmount::atto(1).to_string(), "0.000000000000000001 tok");
  EXPECT_EQ((-TokenAmount::whole(2)).to_string(), "-2 tok");
  EXPECT_EQ((TokenAmount::whole(1) + TokenAmount::atto(500000000000000000))
                .to_string(),
            "1.5 tok");
}

TEST(Token, NegativeZeroEncodingRejected) {
  // Regression (found by fuzzing): sign=1 with magnitude 0 must not decode
  // as a second representation of zero.
  Encoder e;
  e.u8(1).u64(0).u64(0);
  EXPECT_FALSE(decode<TokenAmount>(e.data()).ok());
}

TEST(Token, CodecRoundTripIncludingNegative) {
  for (__int128 raw : {static_cast<__int128>(0), static_cast<__int128>(1),
                       static_cast<__int128>(-1),
                       static_cast<__int128>(123456789),
                       -static_cast<__int128>(5) * TokenAmount::kAttoPerToken}) {
    TokenAmount in = TokenAmount::atto(raw);
    auto out = decode<TokenAmount>(encode(in));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), in);
  }
}

}  // namespace
}  // namespace hc

// Per-call cost of the secp256k1 arithmetic under crypto::verify.
//
// Unlike the figure benches, this one measures wall-clock time per call
// with google-benchmark's automatic iteration count: field multiply,
// square and inverse, scalar multiply, fixed- and variable-base point
// multiplication, a key's comb-table build, Schnorr sign, verify with a
// recurring key (table warm) and with a key seen for the first time, and
// SHA-256 throughput for the portable, SHA-NI and dispatched compression
// kernels. It reproduces the cost table of ROADMAP item 7. Inputs are
// derived from SHA-256 of a counter at run time, so no operand is a
// compile-time constant. The multiply and square benches feed each result
// into the next call, so they time latency, not throughput.
//
//   build/bench/bench_crypto [--benchmark_filter=<regex>]
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/hash.hpp"
#include "crypto/ec.hpp"
#include "crypto/keytable.hpp"
#include "crypto/schnorr.hpp"

namespace hc::crypto {
namespace {

constexpr std::size_t kInputs = 64;  // power of two: index with a mask

Digest input_digest(const std::string& domain, std::size_t i) {
  return Sha256::hash(to_bytes(domain + "-" + std::to_string(i)));
}

std::vector<U256> field_inputs() {
  std::vector<U256> out;
  for (std::size_t i = 0; i < kInputs; ++i) {
    out.push_back(fp::reduce(U256::from_digest(input_digest("fp", i))));
  }
  return out;
}

std::vector<U256> scalar_inputs() {
  std::vector<U256> out;
  for (std::size_t i = 0; i < kInputs; ++i) {
    out.push_back(fn::reduce(U256::from_digest(input_digest("fn", i))));
  }
  return out;
}

void BM_FieldMul(benchmark::State& state) {
  const std::vector<U256> xs = field_inputs();
  U256 acc = xs[0];
  std::size_t i = 0;
  for (auto _ : state) {
    acc = fp::mul(acc, xs[++i & (kInputs - 1)]);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldSqr(benchmark::State& state) {
  U256 acc = field_inputs()[0];
  for (auto _ : state) {
    acc = fp::sqr(acc);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FieldSqr);

void BM_FieldInv(benchmark::State& state) {
  const std::vector<U256> xs = field_inputs();
  std::size_t i = 0;
  for (auto _ : state) {
    U256 r = fp::inv(xs[++i & (kInputs - 1)]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FieldInv)->Unit(benchmark::kMicrosecond);

void BM_ScalarMul(benchmark::State& state) {
  const std::vector<U256> xs = scalar_inputs();
  U256 acc = xs[0];
  std::size_t i = 0;
  for (auto _ : state) {
    acc = fn::mul(acc, xs[++i & (kInputs - 1)]);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ScalarMul);

void BM_MulGenerator(benchmark::State& state) {
  const std::vector<U256> ks = scalar_inputs();
  (void)Point::mul_generator(ks[0]);  // build the comb table outside timing
  std::size_t i = 0;
  for (auto _ : state) {
    Point p = Point::mul_generator(ks[++i & (kInputs - 1)]);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_MulGenerator)->Unit(benchmark::kMicrosecond);

void BM_PointMul(benchmark::State& state) {
  const std::vector<U256> ks = scalar_inputs();
  const Point base = Point::mul_generator(ks[1]);
  std::size_t i = 0;
  for (auto _ : state) {
    Point p = base.mul(ks[++i & (kInputs - 1)]);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PointMul)->Unit(benchmark::kMicrosecond);

struct Signed {
  PublicKey pub;
  Bytes message;
  Signature sig;
};

std::vector<KeyPair> bench_keys() {
  std::vector<KeyPair> keys;
  for (std::size_t i = 0; i < kInputs; ++i) {
    keys.push_back(KeyPair::from_label("bench-key-" + std::to_string(i)));
  }
  return keys;
}

Bytes bench_message(std::size_t i) {
  const Digest d = input_digest("msg", i);
  return Bytes(d.begin(), d.end());
}

void BM_Sign(benchmark::State& state) {
  const std::vector<KeyPair> keys = bench_keys();
  std::vector<Bytes> msgs;
  for (std::size_t i = 0; i < kInputs; ++i) msgs.push_back(bench_message(i));
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t j = ++i & (kInputs - 1);
    Signature sig = keys[j].sign(msgs[j]);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_Sign)->Unit(benchmark::kMicrosecond);

void BM_KeyTableBuild(benchmark::State& state) {
  std::vector<Point> bases;
  for (const KeyPair& kp : bench_keys()) {
    bases.push_back(Point::from_affine(kp.public_key().x(),
                                       kp.public_key().y()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    KeyTable table(bases[++i & (kInputs - 1)]);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_KeyTableBuild)->Unit(benchmark::kMicrosecond);

std::vector<Signed> signed_by(const std::vector<KeyPair>& keys) {
  std::vector<Signed> triples;
  for (const KeyPair& kp : keys) {
    Bytes msg = bench_message(triples.size());
    const Signature sig = kp.sign(msg);
    triples.push_back(Signed{kp.public_key(), std::move(msg), sig});
  }
  return triples;
}

void verify_one(benchmark::State& state, const Signed& t) {
  bool ok = verify(t.pub, t.message, t.sig);
  benchmark::DoNotOptimize(ok);
  if (!ok) state.SkipWithError("honest signature rejected");
}

// The steady state of a validator set: 64 keys that recur, each with its
// KeyTable built before timing starts.
void BM_VerifyRecurringKey(benchmark::State& state) {
  const std::vector<Signed> triples = signed_by(bench_keys());
  for (const Signed& t : triples) {
    (void)verify(t.pub, t.message, t.sig);
    (void)verify(t.pub, t.message, t.sig);
  }
  std::size_t i = 0;
  for (auto _ : state) verify_one(state, triples[++i & (kInputs - 1)]);
}
BENCHMARK(BM_VerifyRecurringKey)->Unit(benchmark::kMicrosecond);

// A key seen for the first time (a one-shot sender): no table, the
// Point::mul path. Every key is verified once, so the iteration count is
// fixed at the pool size, and the labels never repeat within the process.
constexpr std::size_t kFirstSightKeys = 2000;

void BM_VerifyFirstSight(benchmark::State& state) {
  static std::size_t next_label = 0;
  std::vector<KeyPair> keys;
  for (std::size_t i = 0; i < kFirstSightKeys; ++i) {
    keys.push_back(KeyPair::from_label("first-sight-" +
                                       std::to_string(next_label++)));
  }
  const std::vector<Signed> triples = signed_by(keys);
  std::size_t i = 0;
  for (auto _ : state) verify_one(state, triples[i++ % triples.size()]);
}
BENCHMARK(BM_VerifyFirstSight)
    ->Iterations(kFirstSightKeys)
    ->Unit(benchmark::kMicrosecond);

// SHA-256 throughput per kernel (DESIGN.md §16): one-shot hashes of 64 B,
// 1 KiB and 64 KiB inputs, reported as bytes per second.
void BM_Sha256(benchmark::State& state, Sha256::Kernel kernel) {
  if (kernel == nullptr) {
    state.SkipWithError("CPU lacks SHA-NI");
    return;
  }
  const auto len = static_cast<std::size_t>(state.range(0));
  const Digest seed = input_digest("sha", 0);
  Bytes data(len);
  for (std::size_t i = 0; i < len; ++i) data[i] = seed[i % seed.size()];
  for (auto _ : state) {
    Sha256 h(kernel);
    h.update(data);
    Digest d = h.finalize();
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Sha256, portable, Sha256::portable_kernel())
    ->Arg(64)->Arg(1024)->Arg(65536);
BENCHMARK_CAPTURE(BM_Sha256, shani, Sha256::shani_kernel())
    ->Arg(64)->Arg(1024)->Arg(65536);
BENCHMARK_CAPTURE(BM_Sha256, dispatched, Sha256::dispatched_kernel())
    ->Arg(64)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace hc::crypto

BENCHMARK_MAIN();

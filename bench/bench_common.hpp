// Shared builders and load generators for the benchmark harness.
//
// Every bench binary regenerates one figure/table of the paper (see
// DESIGN.md §4 and EXPERIMENTS.md). Benchmarks measure *simulated-time*
// protocol metrics (throughput in committed tx per simulated second,
// latencies in simulated milliseconds); google-benchmark's wall-clock
// numbers only reflect how long the simulation took to run.
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "actors/methods.hpp"
#include "actors/basic.hpp"
#include "common/log.hpp"
#include "obs/export.hpp"
#include "runtime/atomic.hpp"
#include "runtime/hierarchy.hpp"

/// Short git SHA baked in by bench/CMakeLists.txt; "unknown" outside git.
#ifndef HC_GIT_SHA
#define HC_GIT_SHA "unknown"
#endif

namespace hc::bench {

using namespace hc;  // NOLINT: bench binaries are leaf translation units

/// Worker threads for every Hierarchy this binary builds, set by the
/// `--threads N` command-line flag (1 = sequential). Determinism (§11)
/// guarantees the protocol metrics are identical at any value; only the
/// wall-clock changes.
inline std::size_t& bench_threads() {
  static std::size_t n = 1;
  return n;
}

/// Strip `--threads N` / `--threads=N` from argv before google-benchmark
/// parses the remaining flags.
inline void consume_threads_flag(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      bench_threads() =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      continue;
    }
    if (arg.rfind("--threads=", 0) == 0) {
      bench_threads() = static_cast<std::size_t>(
          std::strtoul(arg.c_str() + 10, nullptr, 10));
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  if (bench_threads() == 0) bench_threads() = 1;
}

/// Drop-in replacement for BENCHMARK_MAIN() that understands --threads.
#define HC_BENCH_MAIN()                                                 \
  int main(int argc, char** argv) {                                     \
    ::hc::bench::consume_threads_flag(argc, argv);                      \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                              \
    ::benchmark::Shutdown();                                            \
    return 0;                                                           \
  }

inline core::SubnetParams bench_params(
    core::ConsensusType consensus = core::ConsensusType::kPoaRoundRobin,
    std::uint32_t period = 5, std::uint32_t threshold = 1) {
  core::SubnetParams p;
  p.name = "bench";
  p.consensus = consensus;
  p.min_validator_stake = TokenAmount::whole(5);
  p.min_collateral = TokenAmount::whole(10);
  p.checkpoint_period = period;
  p.checkpoint_policy =
      core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, threshold};
  return p;
}

inline runtime::HierarchyConfig bench_config(
    std::uint64_t seed,
    core::ConsensusType root_consensus = core::ConsensusType::kPoaRoundRobin,
    std::size_t root_validators = 3,
    sim::Duration root_block_time = 100 * sim::kMillisecond) {
  runtime::HierarchyConfig cfg;
  cfg.seed = seed;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  cfg.root_params = bench_params(root_consensus);
  cfg.root_validators = root_validators;
  cfg.root_engine.block_time = root_block_time;
  cfg.root_engine.timeout_base = 4 * root_block_time;
  cfg.threads = bench_threads();
  return cfg;
}

inline consensus::EngineConfig subnet_engine(
    sim::Duration block_time = 100 * sim::kMillisecond) {
  consensus::EngineConfig e;
  e.block_time = block_time;
  e.timeout_base = 4 * block_time;
  return e;
}

/// Saturating transfer load on one subnet: a pool of self-signing users
/// paying each other round-robin. Nonces are tracked locally so messages
/// can be pipelined beyond the chain's confirmation latency.
///
/// Admission control (DESIGN.md §14): a submit refused with kOverloaded is
/// retried in-lane with exponential backoff (base·2^attempt, no RNG, so
/// schedules stay byte-identical at any thread count). The already-signed
/// message is resubmitted as-is — nonces are consumed at signing time, so
/// dropping it would wedge every later nonce of that sender.
class LoadGenerator {
 public:
  LoadGenerator(runtime::Subnet& subnet, std::size_t n_users,
                const std::string& label)
      : subnet_(subnet) {
    for (std::size_t i = 0; i < n_users; ++i) {
      keys_.push_back(crypto::KeyPair::from_label(label + "-load-" +
                                                  std::to_string(i)));
      addrs_.push_back(Address::key(keys_.back().public_key().to_bytes()));
      nonces_.push_back(0);
    }
  }

  /// Addresses that must be pre-funded inside the subnet.
  [[nodiscard]] const std::vector<Address>& addresses() const {
    return addrs_;
  }

  /// Submit `count` transfers (spread over the users). The sign + submit
  /// runs inside the subnet's scheduler lane (SubnetNode::post), not on the
  /// driver thread: client-side crypto is per-subnet work and must scale
  /// with the subnets under --threads, exactly like validation does.
  void pump(std::size_t count) {
    auto& node = subnet_.node(0);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t u = next_user_++ % keys_.size();
      chain::Message m;
      m.from = addrs_[u];
      m.to = addrs_[(u + 1) % addrs_.size()];
      m.nonce = nonces_[u]++;
      m.value = TokenAmount::atto(1);
      m.gas_limit = 1u << 22;
      m.gas_price = TokenAmount::atto(1);
      node.post(0, [this, &node, key = keys_[u], m = std::move(m)]() mutable {
        submit_retry(node, chain::SignedMessage::sign(std::move(m), key), 0);
      });
    }
  }

  [[nodiscard]] std::size_t submitted() const { return next_user_; }
  /// Submissions re-posted after a kOverloaded refusal.
  [[nodiscard]] std::uint64_t retried() const {
    return retried_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr sim::Duration kRetryBase = 20 * sim::kMillisecond;
  static constexpr std::uint32_t kMaxBackoffShift = 6;  // cap: base * 64

  /// Runs in the node's lane. Only kOverloaded triggers a retry: other
  /// failures (bad signature, duplicate) are permanent. Retries never give
  /// up — a client abandoning a signed nonce would wedge every later nonce
  /// of that sender — but the delay cap keeps the retry traffic polite.
  void submit_retry(runtime::SubnetNode& node, chain::SignedMessage msg,
                    std::uint32_t attempt) {
    const Status st = node.submit_message(msg);
    if (st.ok() || st.error().code() != Errc::kOverloaded) return;
    retried_.fetch_add(1, std::memory_order_relaxed);
    const sim::Duration delay = kRetryBase
                                << std::min(attempt, kMaxBackoffShift);
    node.post(delay, [this, &node, msg = std::move(msg), attempt]() mutable {
      submit_retry(node, std::move(msg), attempt + 1);
    });
  }

  runtime::Subnet& subnet_;
  std::vector<crypto::KeyPair> keys_;
  std::vector<Address> addrs_;
  std::vector<std::uint64_t> nonces_;
  std::size_t next_user_ = 0;
  std::atomic<std::uint64_t> retried_{0};
};

/// Fund a list of addresses inside `subnet` via top-down cross-msgs.
inline bool fund_in_subnet(runtime::Hierarchy& h, runtime::Subnet& subnet,
                           const std::vector<Address>& addrs,
                           TokenAmount each) {
  auto funder = h.make_user("bench-funder",
                            each * (addrs.size() + 1) + TokenAmount::whole(10));
  if (!funder.ok()) return false;
  for (const auto& a : addrs) {
    if (subnet.id.is_root()) {
      auto r = h.call(h.root(), funder.value(), a, 0, {}, each);
      if (!r.ok() || !r.value().ok()) return false;
    } else {
      auto r = h.send_cross(h.root(), funder.value(), subnet.id, a, each);
      if (!r.ok() || !r.value().ok()) return false;
    }
  }
  return h.run_until(
      [&] {
        for (const auto& a : addrs) {
          if (subnet.node(0).balance(a) < each) return false;
        }
        return true;
      },
      120 * sim::kSecond);
}

/// Silence logs for the whole binary.
struct QuietLogs {
  QuietLogs() { Log::set_level(LogLevel::kOff); }
};

/// Process start, for the sidecar's meta.wall_seconds: initialised during
/// static initialisation, before main and before any benchmark row.
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

/// The bench harness's one sidecar writer. Collects one entry per run and,
/// when the binary exits, writes
///   BENCH_<name>.metrics.json  — schema 2: a meta block (host_cpus, worker
///                                threads, git SHA, wall seconds from
///                                process start) and the runs,
///   BENCH_<name>.trace.json    — Chrome trace (chrome://tracing) of the
///                                last captured hierarchy (if any).
/// Metric values are integers of simulated time, so two runs with the same
/// seed produce identical "runs" arrays and .trace.json; only the
/// meta block varies with the environment. scripts/bench_diff.py compares
/// the runs, not the meta. Wall-clock attribution is perfbench's job
/// (`perfbench/run.py --trace 1`); nothing here reads the Profiler.
class SidecarWriter {
 public:
  explicit SidecarWriter(std::string bench_name)
      : name_(std::move(bench_name)) {}
  SidecarWriter(const SidecarWriter&) = delete;
  SidecarWriter& operator=(const SidecarWriter&) = delete;

  /// Writes the sidecars; nothing when no run was recorded.
  ~SidecarWriter() {
    if (runs_.empty()) return;
    const std::string path = "BENCH_" + name_;
    std::string json = "{\n  \"bench\": \"" + obs::json_escape(name_) +
                       "\",\n  \"meta\": " + meta_json() +
                       ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const Run& r = runs_[i];
      json += "    {\"label\": \"" + obs::json_escape(r.label) +
              "\", \"seed\": " + std::to_string(r.seed);
      if (r.fingerprint) {
        char fp[19];
        std::snprintf(fp, sizeof fp, "0x%016" PRIx64, *r.fingerprint);
        json += std::string(", \"fingerprint\": \"") + fp + "\"";
      }
      json += ", \"metrics\": " + r.metrics;
      if (!r.scale.empty()) json += ", \"scale\": " + r.scale;
      json += (i + 1 < runs_.size()) ? "},\n" : "}\n";
    }
    json += "  ]\n}\n";
    (void)obs::write_text_file(path + ".metrics.json", json);
    if (trace_) (void)obs::write_text_file(path + ".trace.json", *trace_);
  }

  /// One run entry. `metrics` is a JSON object; the two optional extra
  /// fields are a chaos run's replay `fingerprint` (state roots, metrics
  /// and trace) and bench_scale's compact `scale` footprint object.
  void add(std::string label, std::uint64_t seed, std::string metrics,
           std::optional<std::uint64_t> fingerprint = std::nullopt,
           std::string scale = {}) {
    runs_.push_back(Run{std::move(label), seed, std::move(metrics),
                        fingerprint, std::move(scale)});
  }

  /// Snapshot `reg` as one run.
  void capture(const obs::MetricsRegistry& reg, std::string label,
               std::uint64_t seed) {
    add(std::move(label), seed, obs::metrics_to_json(reg));
  }

  /// Snapshot a hierarchy's metrics and keep its trace as the latest one.
  /// Call once per benchmark run, after run_until; `seed` is recorded so
  /// a run can be reproduced.
  void capture(runtime::Hierarchy& h, std::string label, std::uint64_t seed) {
    capture(h.obs().metrics, std::move(label), seed);
    trace_ = obs::trace_to_chrome_json(h.obs().tracer);
  }

 private:
  struct Run {
    std::string label;
    std::uint64_t seed = 0;
    std::string metrics;
    std::optional<std::uint64_t> fingerprint;
    std::string scale;
  };

  [[nodiscard]] static std::string meta_json() {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - kProcessStart)
                            .count();
    char wall_buf[32];
    std::snprintf(wall_buf, sizeof(wall_buf), "%.3f", wall);
    return std::string("{\"schema\": 2, \"host_cpus\": ") +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"threads\": " + std::to_string(bench_threads()) +
           ", \"git_sha\": \"" + obs::json_escape(HC_GIT_SHA) +
           "\", \"wall_seconds\": " + wall_buf + "}";
  }

  std::string name_;
  std::vector<Run> runs_;
  std::optional<std::string> trace_;
};

}  // namespace hc::bench

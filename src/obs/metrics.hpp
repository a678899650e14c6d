// Subnet-scoped metrics registry.
//
// Always-on instrumentation for the simulator: counters, gauges and
// fixed-bucket histograms, labelable by subnet id (and any other
// dimension, e.g. engine type). Instrument handles returned by the registry
// are stable for the registry's lifetime, so hot paths pay one pointer
// dereference per update — the name/label lookup happens once at wiring
// time. All values are integers (simulated-time microseconds for latencies)
// so every export is byte-deterministic across identical runs.
//
// Instruments are safe to update from ParallelExecutor worker lanes:
// counters and gauges are atomic, histograms take a short internal lock,
// and the registry's find-or-create paths are mutex-guarded (nodes create
// some instruments lazily from inside event callbacks). Sums and bucket
// tallies are order-insensitive, so exports stay byte-identical across
// worker counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hc::obs {

/// A sorted, canonicalized label set, e.g. {subnet="/root/f0100",engine=...}.
class Labels {
 public:
  using Item = std::pair<std::string, std::string>;

  Labels() = default;
  Labels(std::initializer_list<Item> items);

  Labels& add(std::string key, std::string value);

  /// "engine=poa,subnet=/root" — keys sorted, empty for no labels. Used as
  /// the registry map key, so equal label sets always alias one instrument.
  [[nodiscard]] const std::string& canonical() const { return canonical_; }
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }
  [[nodiscard]] bool empty() const { return items_.empty(); }

 private:
  void rebuild();

  std::vector<Item> items_;  // sorted by key
  std::string canonical_;
};

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A point-in-time level (queue depth, mempool occupancy).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper edges in ascending
/// order; one implicit +inf bucket catches the overflow. Designed for
/// simulated-time latencies (integer microseconds). Guarded by an internal
/// lock so lanes on different workers can observe concurrently.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(std::int64_t v);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::int64_t sum() const;
  [[nodiscard]] const std::vector<std::int64_t>& bounds() const {
    return bounds_;  // immutable after construction
  }
  /// bounds().size() + 1 entries; the last one is the +inf bucket.
  /// Returned by value: a consistent snapshot under the internal lock.
  [[nodiscard]] std::vector<std::uint64_t> buckets() const;

 private:
  mutable std::mutex m_;
  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
};

/// Default bucket edges for simulated-time latencies: 1ms .. 100s, in µs.
[[nodiscard]] const std::vector<std::int64_t>& latency_buckets_us();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. References stay valid until clear()/destruction
  /// (node-keyed std::map storage — insertion never moves instruments).
  Counter& counter(const std::string& family, const Labels& labels = {});
  Gauge& gauge(const std::string& family, const Labels& labels = {});
  /// `bounds` is consulted only when the instrument is first created;
  /// defaults to latency_buckets_us().
  Histogram& histogram(const std::string& family, const Labels& labels = {},
                       const std::vector<std::int64_t>& bounds = {});

  /// Lookup without creation; nullptr when absent. (Mainly for tests and
  /// exporter plumbing.)
  [[nodiscard]] const Counter* find_counter(const std::string& family,
                                            const Labels& labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& family, const Labels& labels = {}) const;

  /// Deterministic iteration for the exporters: family name sorted, then
  /// canonical label string sorted. The label map key is the canonical form.
  /// Iterate only from driver context (no lanes running) — exports happen
  /// between runs or at window barriers.
  using CounterFamilies = std::map<std::string, std::map<std::string, Counter>>;
  using GaugeFamilies = std::map<std::string, std::map<std::string, Gauge>>;
  using HistogramFamilies =
      std::map<std::string, std::map<std::string, Histogram>>;
  [[nodiscard]] const CounterFamilies& counters() const { return counters_; }
  [[nodiscard]] const GaugeFamilies& gauges() const { return gauges_; }
  [[nodiscard]] const HistogramFamilies& histograms() const {
    return histograms_;
  }

  /// Drop every instrument (outstanding handles become dangling).
  void clear();

 private:
  mutable std::mutex m_;
  CounterFamilies counters_;
  GaugeFamilies gauges_;
  HistogramFamilies histograms_;
};

}  // namespace hc::obs

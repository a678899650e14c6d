#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>

namespace hc::obs {

Labels::Labels(std::initializer_list<Item> items) : items_(items) {
  rebuild();
}

Labels& Labels::add(std::string key, std::string value) {
  items_.emplace_back(std::move(key), std::move(value));
  rebuild();
  return *this;
}

void Labels::rebuild() {
  std::sort(items_.begin(), items_.end());
  canonical_.clear();
  for (const auto& [k, v] : items_) {
    if (!canonical_.empty()) canonical_ += ',';
    canonical_ += k;
    canonical_ += '=';
    canonical_ += v;
  }
}

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(std::int64_t v) {
  // Inclusive upper edges: v lands in the first bucket with v <= bound.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  std::lock_guard<std::mutex> lk(m_);
  buckets_[idx] += 1;
  count_ += 1;
  sum_ += v;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lk(m_);
  return count_;
}

std::int64_t Histogram::sum() const {
  std::lock_guard<std::mutex> lk(m_);
  return sum_;
}

std::vector<std::uint64_t> Histogram::buckets() const {
  std::lock_guard<std::mutex> lk(m_);
  return buckets_;
}

const std::vector<std::int64_t>& latency_buckets_us() {
  static const std::vector<std::int64_t> kBuckets = {
      1000,      2000,      5000,      10000,     20000,    50000,
      100000,    200000,    500000,    1000000,   2000000,  5000000,
      10000000,  20000000,  50000000,  100000000};
  return kBuckets;
}

Counter& MetricsRegistry::counter(const std::string& family,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lk(m_);
  return counters_[family][labels.canonical()];
}

Gauge& MetricsRegistry::gauge(const std::string& family,
                              const Labels& labels) {
  std::lock_guard<std::mutex> lk(m_);
  return gauges_[family][labels.canonical()];
}

Histogram& MetricsRegistry::histogram(const std::string& family,
                                      const Labels& labels,
                                      const std::vector<std::int64_t>& bounds) {
  std::lock_guard<std::mutex> lk(m_);
  auto& by_label = histograms_[family];
  auto it = by_label
                .try_emplace(labels.canonical(),
                             bounds.empty() ? latency_buckets_us() : bounds)
                .first;
  return it->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& family,
                                             const Labels& labels) const {
  std::lock_guard<std::mutex> lk(m_);
  auto fit = counters_.find(family);
  if (fit == counters_.end()) return nullptr;
  auto it = fit->second.find(labels.canonical());
  return it == fit->second.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& family,
                                                 const Labels& labels) const {
  std::lock_guard<std::mutex> lk(m_);
  auto fit = histograms_.find(family);
  if (fit == histograms_.end()) return nullptr;
  auto it = fit->second.find(labels.canonical());
  return it == fit->second.end() ? nullptr : &it->second;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lk(m_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace hc::obs

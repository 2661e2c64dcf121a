#include "src/obs/metrics_registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cmarkov::obs {

namespace detail {

std::size_t thread_ordinal() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

void atomic_add(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

namespace {

void validate_metric_name(std::string_view name) {
  if (name.empty()) {
    throw std::invalid_argument("metric name must be non-empty");
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) {
      throw std::invalid_argument("metric name '" + std::string(name) +
                                  "' has characters outside [a-zA-Z0-9_:]");
    }
  }
}

}  // namespace

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()) {
  if (bounds_.empty()) {
    throw std::invalid_argument("histogram bucket bounds must be non-empty");
  }
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i])) {
      throw std::invalid_argument("histogram bucket bounds must be finite");
    }
    if (i > 0 && bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "histogram bucket bounds must be strictly increasing");
    }
  }
  buckets_ = std::make_unique<detail::PaddedCell[]>(bounds_.size() + 1);
}

void Histogram::record(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // == size() → overflow
  buckets_[bucket].value.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, value);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].value.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    seen += buckets_[i].value.load(std::memory_order_relaxed);
    if (seen >= target) return bounds_[i];
  }
  return bounds_.back();  // overflow bucket saturates at the last bound
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].value.load(std::memory_order_relaxed);
  }
  return counts;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  validate_metric_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  validate_metric_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> upper_bounds) {
  validate_metric_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_bounds))
             .first;
    return *it->second;
  }
  const auto& existing = it->second->bounds();
  if (!std::equal(existing.begin(), existing.end(), upper_bounds.begin(),
                  upper_bounds.end())) {
    throw std::invalid_argument("histogram '" + std::string(name) +
                                "' re-registered with different bounds");
  }
  return *it->second;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.bounds = histogram->bounds();
    h.buckets = histogram->bucket_counts();
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.p50 = histogram->quantile(0.50);
    h.p99 = histogram->quantile(0.99);
    snap.histograms.emplace(name, std::move(h));
  }
  return snap;
}

std::span<const double> seconds_bucket_bounds() {
  static constexpr double kBounds[] = {
      1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
      1e-1, 2e-1, 5e-1, 1.0,  2.0,  5.0,  10.0, 20.0, 50.0, 100.0};
  return kBounds;
}

std::span<const double> latency_bucket_bounds() {
  static constexpr double kBounds[] = {
      1,   2,   5,   10,  20,  50,  100, 200, 500, 1e3,
      2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6};
  return kBounds;
}

}  // namespace cmarkov::obs

#include "src/obs/timeseries.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "src/obs/export.hpp"
#include "src/util/stopwatch.hpp"

namespace cmarkov::obs {

TimeSeriesRing::TimeSeriesRing(std::size_t capacity) : buf_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("TimeSeriesRing: capacity must be > 0");
  }
}

void TimeSeriesRing::push(double t_seconds, double value) {
  if (count_ < buf_.size()) {
    buf_[(head_ + count_) % buf_.size()] = TimePoint{t_seconds, value};
    ++count_;
    return;
  }
  buf_[head_] = TimePoint{t_seconds, value};
  head_ = (head_ + 1) % buf_.size();
}

TimePoint TimeSeriesRing::oldest() const { return buf_[head_]; }

TimePoint TimeSeriesRing::newest() const {
  return buf_[(head_ + count_ - 1) % buf_.size()];
}

double TimeSeriesRing::latest() const { return empty() ? 0.0 : newest().value; }

double TimeSeriesRing::delta() const {
  if (count_ < 2) return 0.0;
  return newest().value - oldest().value;
}

double TimeSeriesRing::rate_per_second() const {
  if (count_ < 2) return 0.0;
  const double span = newest().t_seconds - oldest().t_seconds;
  if (span <= 0.0) return 0.0;
  return delta() / span;
}

std::vector<TimePoint> TimeSeriesRing::samples() const {
  std::vector<TimePoint> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(buf_[(head_ + i) % buf_.size()]);
  }
  return out;
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bounds.size() && i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= target) return bounds[i];
  }
  return bounds.back();  // overflow mass saturates at the last finite bound
}

TimeSeriesCollector::TimeSeriesCollector(const MetricsRegistry& registry,
                                         CollectorOptions options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.ring_capacity == 0) {
    throw std::invalid_argument(
        "TimeSeriesCollector: ring_capacity must be > 0");
  }
  if (!(options_.period_seconds > 0.0)) {
    throw std::invalid_argument(
        "TimeSeriesCollector: period_seconds must be > 0");
  }
}

TimeSeriesCollector::~TimeSeriesCollector() { stop(); }

void TimeSeriesCollector::start() {
  const std::lock_guard lock(thread_mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { thread_main(); });
}

void TimeSeriesCollector::stop() {
  {
    const std::lock_guard lock(thread_mu_);
    if (!started_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  const std::lock_guard lock(thread_mu_);
  started_ = false;
}

void TimeSeriesCollector::thread_main() {
  Stopwatch watch;
  const auto period = std::chrono::duration<double>(options_.period_seconds);
  for (;;) {
    {
      std::unique_lock lock(thread_mu_);
      if (stop_cv_.wait_for(lock, period, [&] { return stopping_; })) return;
    }
    if (options_.pre_sample) options_.pre_sample();
    sample_now(watch.seconds());
  }
}

void TimeSeriesCollector::sample_now(double t_seconds) {
  // Snapshot outside the collector mutex: the registry does its own
  // locking, and varz_json() readers only ever wait on ring bookkeeping.
  const MetricsRegistry::Snapshot snap = registry_.snapshot();
  const std::lock_guard lock(mu_);
  for (const auto& [name, value] : snap.counters) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(name, TimeSeriesRing(options_.ring_capacity))
               .first;
    }
    it->second.push(t_seconds, static_cast<double>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      it = gauges_.emplace(name, TimeSeriesRing(options_.ring_capacity)).first;
    }
    it->second.push(t_seconds, value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    HistSeries& series = histograms_[name];
    if (series.bounds.empty()) series.bounds = hist.bounds;
    series.ring.push_back(HistSample{t_seconds, hist.count, hist.buckets});
    while (series.ring.size() > options_.ring_capacity) {
      series.ring.pop_front();
    }
  }
  ++samples_;
  last_t_seconds_ = t_seconds;
}

std::uint64_t TimeSeriesCollector::samples_taken() const {
  const std::lock_guard lock(mu_);
  return samples_;
}

HistogramWindow TimeSeriesCollector::window_locked(
    const HistSeries& series) const {
  HistogramWindow window;
  if (series.ring.empty()) return window;
  const HistSample& newest = series.ring.back();
  window.count = newest.count;
  if (series.ring.size() < 2) {
    // One sample: no window yet — report the lifetime distribution so the
    // quantiles are never silently zero while traffic flows.
    window.p50 = bucket_quantile(series.bounds, newest.buckets, 0.50);
    window.p90 = bucket_quantile(series.bounds, newest.buckets, 0.90);
    window.p99 = bucket_quantile(series.bounds, newest.buckets, 0.99);
    return window;
  }
  const HistSample& oldest = series.ring.front();
  window.count_delta =
      newest.count >= oldest.count ? newest.count - oldest.count : 0;
  const double span = newest.t_seconds - oldest.t_seconds;
  if (span > 0.0) {
    window.rate_per_second =
        static_cast<double>(window.count_delta) / span;
  }
  std::vector<std::uint64_t> deltas(newest.buckets.size(), 0);
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const std::uint64_t old_count =
        i < oldest.buckets.size() ? oldest.buckets[i] : 0;
    deltas[i] = newest.buckets[i] >= old_count
                    ? newest.buckets[i] - old_count
                    : 0;
  }
  window.p50 = bucket_quantile(series.bounds, deltas, 0.50);
  window.p90 = bucket_quantile(series.bounds, deltas, 0.90);
  window.p99 = bucket_quantile(series.bounds, deltas, 0.99);
  if (window.count_delta == 0) {
    // Quiet window: fall back to the lifetime distribution (matches the
    // single-sample case above).
    window.p50 = bucket_quantile(series.bounds, newest.buckets, 0.50);
    window.p90 = bucket_quantile(series.bounds, newest.buckets, 0.90);
    window.p99 = bucket_quantile(series.bounds, newest.buckets, 0.99);
  }
  return window;
}

std::string TimeSeriesCollector::varz_json() const {
  const std::lock_guard lock(mu_);
  std::string out = "{\"schema\":\"cmarkov.varz.v1\"";
  out += ",\"now_seconds\":" + format_metric_value(last_t_seconds_);
  out += ",\"period_seconds\":" + format_metric_value(options_.period_seconds);
  out += ",\"ring_capacity\":" + std::to_string(options_.ring_capacity);
  out += ",\"samples\":" + std::to_string(samples_);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, ring] : counters_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + name + "\":{\"value\":" + format_metric_value(ring.latest()) +
           ",\"delta\":" + format_metric_value(ring.delta()) +
           ",\"rate_per_second\":" +
           format_metric_value(ring.rate_per_second()) + "}";
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, ring] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += "\"" + name + "\":{\"value\":" + format_metric_value(ring.latest()) +
           ",\"delta\":" + format_metric_value(ring.delta()) + "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, series] : histograms_) {
    if (!first) out += ',';
    first = false;
    const HistogramWindow window = window_locked(series);
    out += "\"" + name + "\":{\"count\":" + std::to_string(window.count) +
           ",\"count_delta\":" + std::to_string(window.count_delta) +
           ",\"rate_per_second\":" +
           format_metric_value(window.rate_per_second) +
           ",\"p50\":" + format_metric_value(window.p50) +
           ",\"p90\":" + format_metric_value(window.p90) +
           ",\"p99\":" + format_metric_value(window.p99) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace cmarkov::obs

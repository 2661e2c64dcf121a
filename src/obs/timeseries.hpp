// Rolling time-series windows over MetricsRegistry instruments — the data
// behind the admin plane's /varz endpoint and `cmarkov top`.
//
// The registry's instruments are monotonic counters and instantaneous
// gauges: perfect for Prometheus, useless for "what is happening right
// now" questions (ev/s over the last minute, p99 of the last 30 seconds).
// TimeSeriesCollector fixes that off the hot path: a dedicated thread
// snapshots the registry every `period_seconds` into fixed-size
// TimeSeriesRings and derives rates, deltas, and *windowed* histogram
// quantiles (bucket-count deltas between the oldest and newest sample in
// the ring, so p50/p90/p99 describe the ring's window, not
// since-process-start). Instruments pay nothing: sampling reads the same
// relaxed atomics any scrape does, and the rings live behind one collector
// mutex nothing on the serving hot path ever touches.
//
// Determinism: sample_now(t) takes an explicit timestamp, so tests drive
// the collector without the thread and pin exact rates; varz_json() output
// is sorted and locale-independent like every exporter in src/obs.
#pragma once

#include <cstdint>
#include <functional>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics_registry.hpp"

namespace cmarkov::obs {

/// One (time, value) sample.
struct TimePoint {
  double t_seconds = 0.0;
  double value = 0.0;
};

/// Fixed-capacity ring of samples with rate/delta derivation. Not
/// thread-safe on its own — the collector serializes access under its
/// mutex; standalone users do their own locking.
class TimeSeriesRing {
 public:
  explicit TimeSeriesRing(std::size_t capacity);

  void push(double t_seconds, double value);

  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Oldest / newest retained sample. Undefined when empty.
  TimePoint oldest() const;
  TimePoint newest() const;

  /// Newest value; 0 when empty.
  double latest() const;
  /// newest - oldest over the retained window; 0 with < 2 samples.
  double delta() const;
  /// delta() divided by the window's time span; 0 with < 2 samples or a
  /// zero-width window. For monotonic counters this is the windowed rate.
  double rate_per_second() const;

  /// Retained samples, oldest first.
  std::vector<TimePoint> samples() const;

 private:
  std::vector<TimePoint> buf_;
  std::size_t head_ = 0;  // index of the oldest sample
  std::size_t count_ = 0;
};

/// Conservative bucket quantile (same contract as Histogram::quantile,
/// which only works on a live instrument): smallest bound covering
/// quantile `q` of `counts`, saturating at the last finite bound for mass
/// in the trailing overflow bucket. `counts` has bounds.size() + 1
/// entries; returns 0 on an empty distribution.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double q);

struct CollectorOptions {
  /// Collector thread sampling period. Each instrument keeps its last 120
  /// samples, so the derivation window is 120 * period_seconds (two
  /// minutes at the default period).
  double period_seconds = 1.0;
  /// Ran on the collector thread immediately before each snapshot —
  /// cmarkovd hooks the serve gauge refresh here so sampled gauges are
  /// live. May be empty. Must not call back into the collector.
  std::function<void()> pre_sample;
};

/// Windowed derivations for one histogram (over the ring's span).
struct HistogramWindow {
  std::uint64_t count = 0;        ///< lifetime count at the newest sample
  std::uint64_t count_delta = 0;  ///< recorded within the window
  double rate_per_second = 0.0;   ///< count_delta / window span
  double p50 = 0.0;               ///< quantiles of the windowed deltas;
  double p90 = 0.0;               ///< fall back to lifetime distribution
  double p99 = 0.0;               ///< until the ring has 2 samples
};

class TimeSeriesCollector {
 public:
  /// Samples `registry` (which must outlive the collector). Construction
  /// does not start the thread — call start(), or drive sample_now()
  /// manually (tests, single-shot tools).
  TimeSeriesCollector(const MetricsRegistry& registry,
                      CollectorOptions options = {});
  ~TimeSeriesCollector();
  TimeSeriesCollector(const TimeSeriesCollector&) = delete;
  TimeSeriesCollector& operator=(const TimeSeriesCollector&) = delete;

  /// Spawns the collector thread (idempotent).
  void start();
  /// Stops and joins the thread (idempotent; the destructor calls it).
  void stop();

  /// Takes one sample at timestamp `t_seconds` (monotonic, caller's
  /// choice of clock — the thread uses an internal stopwatch). Safe
  /// concurrently with varz_json() and the thread.
  void sample_now(double t_seconds);

  std::uint64_t samples_taken() const;
  const CollectorOptions& options() const { return options_; }

  /// The /varz document: every sampled instrument with its latest value
  /// and windowed derivations. Schema "cmarkov.varz.v1"; sorted keys,
  /// format_metric_value numbers (docs/OBSERVABILITY.md).
  std::string varz_json() const;

 private:
  struct HistSample {
    double t_seconds = 0.0;
    std::uint64_t count = 0;
    std::vector<std::uint64_t> buckets;
  };
  struct HistSeries {
    std::vector<double> bounds;
    std::deque<HistSample> ring;  // capped at 120 samples
  };

  void thread_main();
  HistogramWindow window_locked(const HistSeries& series) const;

  const MetricsRegistry& registry_;
  const CollectorOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, TimeSeriesRing, std::less<>> counters_;
  std::map<std::string, TimeSeriesRing, std::less<>> gauges_;
  std::map<std::string, HistSeries, std::less<>> histograms_;
  std::uint64_t samples_ = 0;
  double last_t_seconds_ = 0.0;

  std::mutex thread_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace cmarkov::obs

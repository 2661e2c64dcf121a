// Lock-cheap metrics primitives shared by every cmarkov layer: counters,
// gauges, and fixed-bucket histograms behind a name-keyed registry.
//
// Hot paths resolve instruments once (registry lookups take a mutex) and
// then record through plain pointers: Counter spreads increments over
// cache-line-padded per-thread cells that are merged on read, so concurrent
// writers never contend on one line; Histogram and Gauge use relaxed
// atomics. Instruments live as long as the registry, so cached pointers
// stay valid. Naming convention: cmarkov_<subsystem>_<name>{unit}
// (docs/OBSERVABILITY.md).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cmarkov::obs {

namespace detail {

/// Small dense ordinal for the calling thread, assigned on first use.
/// Counters hash this (not std::thread::id) so that short-lived threads
/// reuse shards deterministically cheaply.
std::size_t thread_ordinal();

struct alignas(64) PaddedCell {
  std::atomic<std::uint64_t> value{0};
};

/// Atomically adds `delta` to an atomic double (CAS loop; no
/// fetch_add(double) portability assumptions).
void atomic_add(std::atomic<double>& target, double delta);

}  // namespace detail

/// Monotonic counter, sharded across padded per-thread cells. add() is
/// wait-free (one relaxed fetch_add on a thread-local shard); value()
/// merges all shards and may be a momentarily stale sum while writers are
/// active — exact once writers have quiesced.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;
  static_assert((kShards & (kShards - 1)) == 0, "shard mask needs pow2");

  void add(std::uint64_t delta = 1) {
    cells_[detail::thread_ordinal() & (kShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<detail::PaddedCell, kShards> cells_{};
};

/// Last-write-wins instantaneous value (queue depth, utilization ratio).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) { detail::atomic_add(value_, delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: one atomic count per bucket plus an implicit
/// overflow bucket and a running sum. Bounds are validated at construction
/// (non-empty, finite, strictly increasing) — see ISSUE 4 bugfix; the old
/// serve LatencyHistogram accepted any list silently.
class Histogram {
 public:
  /// Throws std::invalid_argument unless `upper_bounds` is non-empty,
  /// finite, and strictly increasing.
  explicit Histogram(std::span<const double> upper_bounds);

  void record(double value);

  std::uint64_t count() const;
  double sum() const;
  /// Smallest bucket upper bound covering quantile `q` of recorded values
  /// (conservative, like Prometheus histogram_quantile); saturates at the
  /// last finite bound when `q` lands in the overflow bucket. Returns 0
  /// when empty.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; one extra trailing entry for the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<detail::PaddedCell[]> buckets_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of one histogram, used by exporters and snapshots.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Name-keyed instrument registry. Lookup takes a mutex (cold path);
/// returned references stay valid for the registry's lifetime, so callers
/// cache them. Re-registering a histogram name with different bounds is an
/// error.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_bounds);

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shared bucket layout for stage-duration histograms (seconds): 1-2-5
/// decades from 100 microseconds to 100 seconds.
std::span<const double> seconds_bucket_bounds();

/// Shared bucket layout for latency histograms (microseconds): 1us .. 2s,
/// log-ish spacing. Values above the last bound land in the overflow bucket
/// and quantiles saturate at 2e6.
std::span<const double> latency_bucket_bounds();

}  // namespace cmarkov::obs

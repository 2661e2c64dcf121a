// Tracer — per-event span recording for the serving tier (ISSUE 5). One
// event flowing through cmarkovd leaves up to three spans: "queue" (submit
// to worker pickup), "score" (OnlineMonitor::on_event) and "reply" (the
// protocol turnaround for explicitly traced EV lines). Spans carry the
// trace_id threaded from the protocol's tid= field, the session id, and a
// per-event sequence number so a single event's spans correlate.
//
// Recording goes through a lock-free BoundedLog (drop-accounted flight
// recorder); the sampling guard (`sample_every`, with explicitly traced
// events always admitted) keeps the hot-path cost to one relaxed
// fetch_add per event when enabled and one branch when disabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "src/obs/trace/bounded_log.hpp"

namespace cmarkov::obs {

struct TracerOptions {
  /// Master switch; a disabled tracer records nothing and samples nothing.
  bool enabled = false;
  /// Admit every Nth sampling candidate (1 = every event, 0 = only events
  /// that force tracing via an explicit trace id).
  std::uint64_t sample_every = 100;
};

/// Span slots in an enabled tracer's bounded log; appends beyond this are
/// dropped and counted.
inline constexpr std::size_t kTracerCapacity = 8192;

/// One recorded span. Times are microseconds on the owning service's
/// monotonic clock; `thread` is the worker shard (or 0 for transport-side
/// spans) and becomes the Chrome-trace tid.
struct SpanRecord {
  std::string name;      ///< "queue" | "score" | "reply"
  std::string session;
  std::string trace_id;
  std::uint64_t seq = 0;  ///< correlates the spans of one event
  double start_micros = 0.0;
  double duration_micros = 0.0;
  std::uint64_t thread = 0;
};

class Tracer {
 public:
  explicit Tracer(TracerOptions options)
      : options_(options), log_(options.enabled ? kTracerCapacity : 0) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return options_.enabled; }
  const TracerOptions& options() const { return options_; }

  /// Sampling guard, called once per event at submit time: explicitly
  /// traced events (`force`, i.e. a tid= was supplied) are always admitted;
  /// otherwise every `sample_every`-th candidate is.
  bool sample(bool force) {
    if (!options_.enabled) return false;
    if (force) return true;
    if (options_.sample_every == 0) return false;
    return candidates_.fetch_add(1, std::memory_order_relaxed) %
               options_.sample_every ==
           0;
  }

  /// Fresh per-event sequence number (correlates an event's spans).
  std::uint64_t next_seq() {
    return seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Wait-free append; false (and a counted drop) when full or disabled.
  bool record(SpanRecord span) {
    if (!options_.enabled) return false;
    return log_.append(std::move(span));
  }

  /// True once the span log can never accept another record (flight
  /// recorder: slots are not reclaimed). Callers on the hot path may skip
  /// constructing spans entirely and call drop() instead.
  bool full() const { return !options_.enabled || log_.full(); }

  /// Drop accounting for spans skipped via the full() fast path.
  void drop(std::uint64_t n = 1) {
    if (options_.enabled) log_.drop(n);
  }

  std::uint64_t recorded() const { return log_.appended(); }
  std::uint64_t dropped() const { return log_.dropped(); }

  /// Published spans in claim order (deterministic when production is).
  std::vector<SpanRecord> snapshot() const { return log_.snapshot(); }

 private:
  TracerOptions options_;
  BoundedLog<SpanRecord> log_;
  std::atomic<std::uint64_t> candidates_{0};
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace cmarkov::obs

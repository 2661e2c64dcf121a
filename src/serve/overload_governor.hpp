// The overload degradation ladder: when cmarkovd is pushed past sustained
// capacity, it sheds load in a deliberate, documented order instead of
// letting queue pressure pick victims at random (DESIGN.md §8 has the
// rationale; MaMaDroid's abstraction fallback is the analogous idea on the
// modeling side — degrade along a known ladder, never off a cliff).
//
// The ladder, in shedding order:
//   level 0  normal       full service
//   level 1  shed-traces  sampled span/decision tracing suspended
//                         (tid=-forced traces still honored)
//   level 2  shed-hellos  new sessions refused with a retry-after hint
//                         ("ERR overloaded retry-after=<ms>"); existing
//                         sessions — resident or snapshotted — unaffected
//   level 3  shed-idle    idle resident sessions evicted early (snapshot
//                         + restore, so nothing is lost — they just pay a
//                         restore later)
//
// Accepted events are NEVER dropped by the ladder: every rung sheds work
// the protocol lets us refuse or defer, not events already acknowledged.
//
// Pressure is the max of two signals: queue occupancy (queued / capacity)
// and the per-event deadline budget (estimated queue delay, queued x EMA
// service time, over OverloadOptions::event_deadline_micros). The ladder
// moves one rung at a time, and only after the breach (or the relief) has
// persisted for sustain_micros — transient bursts don't shed, and recovery
// is as deliberate as degradation (hysteresis via the low/high water pair).
//
// Ladder constants (overload_governor.cpp):
//   high water 0.75   pressure at/above which the breach timer runs
//   low water  0.25   pressure at/below which the relief timer runs (the
//                     gap between the two is the hysteresis hold band)
//   shed-idle  0.75   level 3 enforces max_resident_sessions x this
//   retry-after 1000  ms hint sent with shed HELLOs
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>

namespace cmarkov::serve {

struct OverloadOptions {
  bool enabled = true;
  /// Per-event latency budget: estimated queue delay beyond this counts as
  /// pressure even while queues have headroom. 0 disables the delay signal
  /// (occupancy still governs).
  double event_deadline_micros = 50'000.0;
  /// Breach/relief must persist this long before the ladder moves a rung.
  double sustain_micros = 250'000.0;
};

enum class OverloadLevel : int {
  kNormal = 0,
  kShedTraces = 1,
  kShedHellos = 2,
  kShedIdle = 3,
};

/// "normal" | "shed-traces" | "shed-hellos" | "shed-idle".
const char* overload_level_name(OverloadLevel level);

/// Thrown by SessionManager::open_session when the ladder refuses a new
/// session. Deliberately NOT a std::runtime_error: the binary protocol
/// maps runtime_error to a connection-dropping framing violation, and an
/// overloaded server must answer with a retryable application error
/// instead. what() is protocol-ready: "overloaded retry-after=<ms>".
class OverloadedError : public std::exception {
 public:
  explicit OverloadedError(std::uint64_t retry_after_ms)
      : message_("overloaded retry-after=" + std::to_string(retry_after_ms)) {}
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string message_;
};

/// The admission governor. level() reads are one relaxed atomic load (the
/// submit hot path checks it per event); update() is called periodically
/// with aggregate queue state and moves the ladder.
class OverloadGovernor {
 public:
  explicit OverloadGovernor(OverloadOptions options);

  bool enabled() const { return options_.enabled; }

  OverloadLevel level() const {
    return static_cast<OverloadLevel>(level_.load(std::memory_order_relaxed));
  }
  bool shed_trace_sampling() const {
    return level_.load(std::memory_order_relaxed) >=
           static_cast<int>(OverloadLevel::kShedTraces);
  }
  bool shed_new_sessions() const {
    return level_.load(std::memory_order_relaxed) >=
           static_cast<int>(OverloadLevel::kShedHellos);
  }
  bool shed_idle_sessions() const {
    return level_.load(std::memory_order_relaxed) >=
           static_cast<int>(OverloadLevel::kShedIdle);
  }
  /// Retry hint (milliseconds) sent with shed HELLOs.
  std::uint64_t retry_after_ms() const;
  /// Resident-session budget under the current level: `max_resident`, cut
  /// to a fraction of it (at least 1) at shed-idle.
  std::size_t resident_budget(std::size_t max_resident) const;

  struct Update {
    OverloadLevel level = OverloadLevel::kNormal;
    /// Rungs moved by this update (0 almost always; the ladder moves one
    /// rung per sustained breach/relief).
    int transitions = 0;
  };

  /// Feeds one pressure observation. `queued` is the aggregate queued
  /// event count across workers, `capacity` the aggregate queue capacity,
  /// `est_service_micros` the EMA per-event service time (0 = unknown).
  /// Thread-safe; concurrent callers serialize on an internal mutex.
  Update update(double now_micros, std::size_t queued, std::size_t capacity,
                double est_service_micros);

  /// The combined pressure signal update() acts on (exposed for tests and
  /// the overload gauge): max(occupancy, estimated delay / deadline).
  double pressure(std::size_t queued, std::size_t capacity,
                  double est_service_micros) const;

 private:
  const OverloadOptions options_;
  std::mutex mu_;  ///< guards the breach/relief timers below
  std::atomic<int> level_{0};
  double breach_since_ = -1.0;  ///< -1 = no running breach timer
  double relief_since_ = -1.0;  ///< -1 = no running relief timer
};

}  // namespace cmarkov::serve

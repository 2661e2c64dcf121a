#include "src/serve/overload_governor.hpp"

#include <algorithm>

namespace cmarkov::serve {

namespace {
constexpr double kHighWaterRatio = 0.75;
constexpr double kLowWaterRatio = 0.25;
constexpr double kShedResidentFraction = 0.75;
constexpr std::uint64_t kRetryAfterMs = 1000;
}  // namespace

const char* overload_level_name(OverloadLevel level) {
  switch (level) {
    case OverloadLevel::kNormal:
      return "normal";
    case OverloadLevel::kShedTraces:
      return "shed-traces";
    case OverloadLevel::kShedHellos:
      return "shed-hellos";
    case OverloadLevel::kShedIdle:
      return "shed-idle";
  }
  return "?";
}

OverloadGovernor::OverloadGovernor(OverloadOptions options)
    : options_(options) {}

std::uint64_t OverloadGovernor::retry_after_ms() const { return kRetryAfterMs; }

std::size_t OverloadGovernor::resident_budget(std::size_t max_resident) const {
  if (!shed_idle_sessions()) return max_resident;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(max_resident) *
                                  kShedResidentFraction));
}

double OverloadGovernor::pressure(std::size_t queued, std::size_t capacity,
                                  double est_service_micros) const {
  double p = capacity == 0 ? 0.0
                           : static_cast<double>(queued) /
                                 static_cast<double>(capacity);
  if (options_.event_deadline_micros > 0.0 && est_service_micros > 0.0) {
    const double est_delay =
        static_cast<double>(queued) * est_service_micros;
    p = std::max(p, est_delay / options_.event_deadline_micros);
  }
  return p;
}

OverloadGovernor::Update OverloadGovernor::update(double now_micros,
                                                  std::size_t queued,
                                                  std::size_t capacity,
                                                  double est_service_micros) {
  Update result;
  if (!options_.enabled) return result;
  const double p = pressure(queued, capacity, est_service_micros);
  const std::lock_guard lock(mu_);
  int level = level_.load(std::memory_order_relaxed);
  if (p >= kHighWaterRatio) {
    relief_since_ = -1.0;
    if (breach_since_ < 0.0) breach_since_ = now_micros;
    if (level < static_cast<int>(OverloadLevel::kShedIdle) &&
        now_micros - breach_since_ >= options_.sustain_micros) {
      ++level;
      ++result.transitions;
      breach_since_ = now_micros;  // the next rung needs its own sustain
    }
  } else if (p <= kLowWaterRatio) {
    breach_since_ = -1.0;
    if (level > 0) {
      if (relief_since_ < 0.0) relief_since_ = now_micros;
      if (now_micros - relief_since_ >= options_.sustain_micros) {
        --level;
        ++result.transitions;
        relief_since_ = now_micros;  // recovery is one rung at a time too
      }
    } else {
      relief_since_ = -1.0;
    }
  } else {
    // Hysteresis hold band: neither timer runs, the ladder stays put.
    breach_since_ = -1.0;
    relief_since_ = -1.0;
  }
  level_.store(level, std::memory_order_relaxed);
  result.level = static_cast<OverloadLevel>(level);
  return result;
}

}  // namespace cmarkov::serve

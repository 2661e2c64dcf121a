// Minimal leveled logging to stderr. Benches and examples keep stdout clean
// for table output; diagnostics go through here.
//
// Line format: "[LEVEL <seconds> t<ordinal>] <message>". The timestamp is
// monotonic (steady-clock seconds since the logger first ran) and
// non-decreasing in output order; the ordinal is a small per-thread id
// assigned in order of each thread's first log line — both matter once the
// cmarkovd worker pool logs from many threads at once.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace cmarkov {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the global minimum level; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emits a single log line (thread-safe: concurrent writers never
/// interleave within a line and timestamps stay ordered).
void log_message(LogLevel level, const std::string& message);

namespace detail {

/// Stream-style log statement builder; flushes on destruction. Below the
/// current level it builds no stream and formats nothing, so a suppressed
/// line costs one atomic load and no allocation.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {
    if (static_cast<int>(level) >= static_cast<int>(log_level())) {
      stream_.emplace();
    }
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() {
    if (stream_) log_message(level_, stream_->str());
  }

  template <typename T>
  LogLine& operator<<(const T& value) {
    if (stream_) *stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::optional<std::ostringstream> stream_;
};

}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::kError); }

}  // namespace cmarkov

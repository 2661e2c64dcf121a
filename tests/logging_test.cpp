// Tests for the leveled logging facility: line format (level, monotonic
// timestamp, thread ordinal), race-freedom under concurrent writers, and a
// suppressed line that allocates nothing. This binary replaces the global
// operator new (allocation_probe.hpp).
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "src/util/logging.hpp"
#include "tests/allocation_probe.hpp"

namespace cmarkov {
namespace {

/// Captures std::cerr for the duration of a scope.
class CerrCapture {
 public:
  CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(old_); }
  std::string text() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* old_;
};

// "[LEVEL <seconds>.<6 digits> t<ordinal>] <message>"
const std::regex& line_pattern() {
  static const std::regex pattern(
      R"(\[([A-Z]+) (\d+\.\d{6}) t(\d+)\] (.*))");
  return pattern;
}

struct ParsedLine {
  std::string level;
  double seconds = 0.0;
  int thread_ordinal = 0;
  std::string message;
};

ParsedLine parse_line(const std::string& line) {
  std::smatch match;
  EXPECT_TRUE(std::regex_match(line, match, line_pattern()))
      << "malformed log line: '" << line << "'";
  ParsedLine parsed;
  if (match.size() == 5) {
    parsed.level = match[1];
    parsed.seconds = std::stod(match[2]);
    parsed.thread_ordinal = std::stoi(match[3]);
    parsed.message = match[4];
  }
  return parsed;
}

std::vector<std::string> captured_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

class LoggingTest : public ::testing::Test {
 protected:
  void TearDown() override { set_log_level(LogLevel::kInfo); }
};

TEST_F(LoggingTest, MessagesCarryLevelTimestampAndThreadPrefix) {
  set_log_level(LogLevel::kDebug);
  CerrCapture capture;
  log_message(LogLevel::kWarn, "watch out");
  const auto lines = captured_lines(capture.text());
  ASSERT_EQ(lines.size(), 1u);
  const ParsedLine parsed = parse_line(lines[0]);
  EXPECT_EQ(parsed.level, "WARN");
  EXPECT_EQ(parsed.message, "watch out");
  EXPECT_GE(parsed.seconds, 0.0);
  EXPECT_GE(parsed.thread_ordinal, 1);
}

TEST_F(LoggingTest, LevelsBelowThresholdAreDropped) {
  set_log_level(LogLevel::kWarn);
  CerrCapture capture;
  log_message(LogLevel::kDebug, "noise");
  log_message(LogLevel::kInfo, "more noise");
  log_message(LogLevel::kError, "signal");
  const auto lines = captured_lines(capture.text());
  ASSERT_EQ(lines.size(), 1u);
  const ParsedLine parsed = parse_line(lines[0]);
  EXPECT_EQ(parsed.level, "ERROR");
  EXPECT_EQ(parsed.message, "signal");
}

TEST_F(LoggingTest, StreamStyleBuildersFlushOnDestruction) {
  set_log_level(LogLevel::kDebug);
  CerrCapture capture;
  log_info() << "value=" << 42 << " ratio=" << 1.5;
  const auto lines = captured_lines(capture.text());
  ASSERT_EQ(lines.size(), 1u);
  const ParsedLine parsed = parse_line(lines[0]);
  EXPECT_EQ(parsed.level, "INFO");
  EXPECT_EQ(parsed.message, "value=42 ratio=1.5");
}

TEST_F(LoggingTest, BuilderRespectsLevel) {
  set_log_level(LogLevel::kError);
  CerrCapture capture;
  log_debug() << "hidden";
  log_warn() << "also hidden";
  log_error() << "visible";
  const auto lines = captured_lines(capture.text());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(parse_line(lines[0]).message, "visible");
}

// A line below the level builds no stream: the worker logs every alarm
// at debug, and at the default info level that must cost no allocation.
TEST_F(LoggingTest, SuppressedLineMakesNoAllocation) {
  set_log_level(LogLevel::kInfo);
  const std::string session = "a-session-id-longer-than-sso";
  CerrCapture capture;
  {
    test_support::AllocationProbe probe;
    log_debug() << "alarm session=" << session << " model=gzip"
                << " windows=" << 42 << " ll=" << -17.25;
    EXPECT_EQ(probe.calls(), 0u);
  }
  EXPECT_TRUE(capture.text().empty());
}

TEST_F(LoggingTest, TimestampsAreMonotonicAcrossLines) {
  set_log_level(LogLevel::kDebug);
  CerrCapture capture;
  for (int i = 0; i < 50; ++i) log_info() << "tick " << i;
  const auto lines = captured_lines(capture.text());
  ASSERT_EQ(lines.size(), 50u);
  double previous = -1.0;
  for (const auto& line : lines) {
    const ParsedLine parsed = parse_line(line);
    EXPECT_GE(parsed.seconds, previous);
    previous = parsed.seconds;
  }
}

TEST_F(LoggingTest, LevelIsQueryable) {
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
}

// The cmarkovd worker pool logs from many threads at once: every line must
// come out whole (no interleaving), carry its writer's ordinal, and keep
// timestamps non-decreasing in output order.
TEST_F(LoggingTest, ConcurrentWritersNeverInterleave) {
  constexpr int kThreads = 8;
  constexpr int kLinesPerThread = 200;
  set_log_level(LogLevel::kDebug);
  CerrCapture capture;
  {
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([t] {
        for (int i = 0; i < kLinesPerThread; ++i) {
          log_info() << "writer " << t << " line " << i;
        }
      });
    }
    for (auto& writer : writers) writer.join();
  }

  const auto lines = captured_lines(capture.text());
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads * kLinesPerThread));
  const std::regex message_pattern(R"(writer (\d+) line (\d+))");
  std::vector<int> per_writer_next(kThreads, 0);
  std::set<int> ordinals_seen;
  double previous_seconds = -1.0;
  for (const auto& line : lines) {
    const ParsedLine parsed = parse_line(line);
    EXPECT_GE(parsed.seconds, previous_seconds);
    previous_seconds = parsed.seconds;
    ordinals_seen.insert(parsed.thread_ordinal);
    std::smatch match;
    ASSERT_TRUE(std::regex_match(parsed.message, match, message_pattern))
        << "torn message: '" << parsed.message << "'";
    const int writer = std::stoi(match[1]);
    // Each writer's own lines arrive in its program order.
    EXPECT_EQ(std::stoi(match[2]), per_writer_next[writer]);
    per_writer_next[writer] += 1;
  }
  for (int next : per_writer_next) EXPECT_EQ(next, kLinesPerThread);
  EXPECT_EQ(ordinals_seen.size(), static_cast<std::size_t>(kThreads));
}

}  // namespace
}  // namespace cmarkov

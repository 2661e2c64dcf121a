// Tests for the strace-like trace serialization format.
#include <gtest/gtest.h>

#include <sstream>

#include "src/trace/trace_io.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::trace {
namespace {

std::string to_text(const Trace& trace) {
  std::ostringstream out;
  write_trace(out, trace);
  return out.str();
}

Trace sample_trace() {
  Trace trace;
  trace.program = "sample";
  trace.events = {
      {ir::CallKind::kSyscall, "read", 0x40012c, "fill_window"},
      {ir::CallKind::kLibcall, "memcpy", 0x400188, "deflate_block"},
      {ir::CallKind::kSyscall, "write", 0x4001f0, ""},
  };
  return trace;
}

TEST(TraceIoTest, WritesExpectedFormat) {
  const std::string text = to_text(sample_trace());
  EXPECT_NE(text.find("# program: sample"), std::string::npos);
  EXPECT_NE(text.find("sys read 0x40012c [fill_window]"), std::string::npos);
  EXPECT_NE(text.find("lib memcpy 0x400188 [deflate_block]"),
            std::string::npos);
  // Unsymbolized events carry no bracket part.
  EXPECT_NE(text.find("sys write 0x4001f0\n"), std::string::npos);
}

TEST(TraceIoTest, RoundTripsExactly) {
  const Trace original = sample_trace();
  const Trace parsed = parse_trace(to_text(original));
  EXPECT_EQ(parsed.program, original.program);
  ASSERT_EQ(parsed.events.size(), original.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].kind, original.events[i].kind);
    EXPECT_EQ(parsed.events[i].name, original.events[i].name);
    EXPECT_EQ(parsed.events[i].site_address, original.events[i].site_address);
    EXPECT_EQ(parsed.events[i].caller, original.events[i].caller);
  }
}

TEST(TraceIoTest, RoundTripsRealSuiteTraces) {
  const workload::ProgramSuite suite = workload::make_sed_suite();
  const auto collection = workload::collect_traces(suite, 3, 5);
  for (const auto& trace : collection.traces) {
    const Trace parsed = parse_trace(to_text(trace));
    ASSERT_EQ(parsed.events.size(), trace.events.size());
    for (std::size_t i = 0; i < parsed.events.size(); ++i) {
      EXPECT_EQ(parsed.events[i].name, trace.events[i].name);
      EXPECT_EQ(parsed.events[i].caller, trace.events[i].caller);
    }
  }
}

TEST(TraceIoTest, IgnoresBlankLinesAndComments) {
  const Trace parsed = parse_trace(
      "# program: p\n\n# a comment\nsys open 0x10 [main]\n\n");
  EXPECT_EQ(parsed.program, "p");
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].name, "open");
}

TEST(TraceIoTest, RejectsMalformedLinesWithLineNumbers) {
  auto expect_error_at = [](const std::string& text, std::size_t line) {
    try {
      parse_trace(text);
      FAIL() << "expected TraceFormatError for: " << text;
    } catch (const TraceFormatError& e) {
      EXPECT_EQ(e.line(), line) << text;
    }
  };
  expect_error_at("sys read\n", 1);                       // missing address
  expect_error_at("net read 0x10\n", 1);                  // bad stream tag
  expect_error_at("sys read 40 [f]\n", 1);                // missing 0x
  expect_error_at("sys read 0xZZ [f]\n", 1);              // bad hex
  expect_error_at("sys ok 0x10 [f]\nsys bad 0x10 f\n", 2);  // bad caller
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/trace_io_test.trace";
  write_trace_file(path, sample_trace());
  const Trace loaded = read_trace_file(path);
  EXPECT_EQ(loaded.events.size(), 3u);
  EXPECT_THROW(read_trace_file("/nonexistent/file.trace"),
               std::runtime_error);
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  Trace empty;
  empty.program = "nothing";
  const Trace parsed = parse_trace(to_text(empty));
  EXPECT_EQ(parsed.program, "nothing");
  EXPECT_TRUE(parsed.events.empty());
}

}  // namespace
}  // namespace cmarkov::trace

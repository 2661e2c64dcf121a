// Unit tests for src/util: rng determinism and distributions, stopwatch,
// strings, table printer, and the bounded RecordReader under persisted
// state.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "src/util/record_reader.hpp"
#include "src/util/rng.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/strings.hpp"
#include "src/util/table_printer.hpp"

namespace cmarkov {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1 << 30) != b.uniform_int(0, 1 << 30)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(RngTest, IndexCoversAllBuckets) {
  Rng rng(3);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(13);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::size_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) counts[rng.weighted_index(weights)] += 1;
  EXPECT_EQ(counts[1], 0u);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(RngTest, WeightedIndexRejectsDegenerateInput) {
  Rng rng(13);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index(std::vector<double>{}),
               std::invalid_argument);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = items;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, items);
}

TEST(RngTest, PickRejectsEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(100);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.uniform_int(0, 1 << 30) == child.uniform_int(0, 1 << 30)) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(watch.millis(), 5.0);
  watch.reset();
  EXPECT_LT(watch.millis(), 5.0);
}

TEST(PhaseTimerTest, AccumulatesPhases) {
  PhaseTimer timer;
  timer.add("a", 1.0);
  timer.add("a", 2.0);
  timer.add("b", 0.5);
  EXPECT_DOUBLE_EQ(timer.total("a"), 3.0);
  EXPECT_EQ(timer.count("a"), 2u);
  EXPECT_DOUBLE_EQ(timer.mean("a"), 1.5);
  EXPECT_DOUBLE_EQ(timer.total("missing"), 0.0);
  EXPECT_DOUBLE_EQ(timer.mean("missing"), 0.0);
}

TEST(ScopedPhaseTest, RecordsOnDestruction) {
  PhaseTimer timer;
  {
    ScopedPhase phase(timer, "scope");
  }
  EXPECT_EQ(timer.count("scope"), 1u);
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, JoinConcatenatesWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringsTest, PrefixSuffixChecks) {
  EXPECT_TRUE(starts_with("read@main", "read"));
  EXPECT_FALSE(starts_with("read", "read@"));
  EXPECT_TRUE(ends_with("read@main", "@main"));
  EXPECT_FALSE(ends_with("main", "@main"));
}

TEST(StringsTest, FormatHelpers) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
}

TEST(StringsTest, ParsePortRejectsWhatWouldTruncate) {
  EXPECT_EQ(parse_port("0"), 0u);
  EXPECT_EQ(parse_port("8080"), 8080u);
  EXPECT_EQ(parse_port("65535"), 65535u);
  EXPECT_THROW(parse_port("65536"), std::invalid_argument);
  EXPECT_THROW(parse_port("4294967297"), std::invalid_argument);
  EXPECT_THROW(parse_port("-1"), std::invalid_argument);
  EXPECT_THROW(parse_port("80x"), std::invalid_argument);
  EXPECT_THROW(parse_port(""), std::invalid_argument);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"Program", "N"});
  table.add_row({"gzip", "21"});
  table.add_row({"bash", "1366"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("Program  N"), std::string::npos);
  EXPECT_NE(out.find("gzip"), std::string::npos);
  EXPECT_NE(out.find("1366"), std::string::npos);
}

TEST(TablePrinterTest, PadsMissingCellsAndRejectsWideRows) {
  TablePrinter table({"a", "b", "c"});
  table.add_row({"x"});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_THROW(table.add_row({"1", "2", "3", "4"}), std::invalid_argument);
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

/// Asserts `read` throws std::runtime_error "test: …" naming `key`.
template <typename Read>
void expect_refused(Read read, const std::string& key) {
  try {
    read();
    ADD_FAILURE() << "accepted a value for '" << key << "'";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.rfind("test: ", 0), 0u) << message;
    EXPECT_NE(message.find("'" + key + "'"), std::string::npos) << message;
  }
}

TEST(RecordReaderTest, UnsignedIntegersRejectSignsAndOverflow) {
  util::RecordReader in("n 18446744073709551615\n  7", "test");
  EXPECT_EQ(in.u64_field("n"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(in.u64("m"), 7u);
  for (const char* bad : {"-1", "+1", "18446744073709551616", "1.0", "0x1"}) {
    util::RecordReader reader(bad, "test");
    expect_refused([&] { reader.u64("n"); }, "n");
  }
  util::RecordReader empty("  \n", "test");
  expect_refused([&] { empty.u64("n"); }, "n");
}

TEST(RecordReaderTest, DecimalDoublesMustBeFinite) {
  util::RecordReader in("0.5 -0 4.9406564584124654e-324", "test");
  EXPECT_EQ(in.finite_double("x"), 0.5);
  EXPECT_TRUE(std::signbit(in.finite_double("x")));
  EXPECT_EQ(in.finite_double("x"),
            std::numeric_limits<double>::denorm_min());
  for (const char* bad : {"nan", "inf", "-inf", "1e400", "+1", "0x1p3",
                          "1.0.0"}) {
    util::RecordReader reader(bad, "test");
    expect_refused([&] { reader.finite_double("x"); }, "x");
  }
}

TEST(RecordReaderTest, HexDoublesAreBareBitPatterns) {
  util::RecordReader in("3ff0000000000000 8000000000000000 0", "test");
  EXPECT_EQ(in.hex_double("h"), 1.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(in.hex_double("h")),
            0x8000000000000000u);
  EXPECT_EQ(in.hex_double("h"), 0.0);
  for (const char* bad : {"-1", "+1", "0x3ff0000000000000",
                          "10000000000000000", "xyz"}) {
    util::RecordReader reader(bad, "test");
    expect_refused([&] { reader.hex_double("h"); }, "h");
  }
}

TEST(RecordReaderTest, KeysMustMatch) {
  util::RecordReader in("alpha 1\nbeta", "test");
  in.expect("alpha");
  EXPECT_EQ(in.u64("alpha"), 1u);
  expect_refused([&] { in.expect("gamma"); }, "gamma");
  util::RecordReader header("cmarkov-x 2\n", "test");
  EXPECT_THROW(header.header("cmarkov-x", 1), std::runtime_error);
}

TEST(RecordReaderTest, CountsMustFitTheBytesThatRemain) {
  // Three items of two bytes each (" a", " b", " c") fit; four do not.
  util::RecordReader fits("3 a b c", "test");
  EXPECT_EQ(fits.count("items", 2), 3u);
  util::RecordReader lies("4 a b c", "test");
  expect_refused([&] { lies.count("items", 2); }, "items");

  util::RecordReader shape("2 3 1 2 3 4 5 6", "test");
  const auto [rows, cols] = shape.shape("m", 2);
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(cols, 3u);
  // 2^32 x 2^32 wraps to 0 in 64 bits; the rule never forms the product.
  util::RecordReader wraps("4294967296 4294967296 0.5", "test");
  expect_refused([&] { wraps.shape("m", 2); }, "m");
  util::RecordReader empty_rows("1000000000000 0\n", "test");
  EXPECT_EQ(empty_rows.shape("m", 2).rows, 1000000000000u);
}

TEST(RecordReaderTest, SizedStringsKeepEveryByte) {
  util::RecordReader in("5 a b\nc 0 \n", "test");
  EXPECT_EQ(in.sized_string("id"), "a b\nc");
  EXPECT_EQ(in.sized_string("id"), "");
  for (const char* bad : {"9 abc", "3abc", "3", "-1 x"}) {
    util::RecordReader reader(bad, "test");
    expect_refused([&] { reader.sized_string("id"); }, "id");
  }
}

TEST(RecordReaderTest, LinesSplitOnNewlinesOnly) {
  util::RecordReader in("2\nread@main\nwith space", "test");
  EXPECT_EQ(in.u64("n"), 2u);
  EXPECT_EQ(in.line("symbol"), "");  // the rest of the count's line
  EXPECT_EQ(in.line("symbol"), "read@main");
  EXPECT_EQ(in.line("symbol"), "with space");
  expect_refused([&] { in.line("symbol"); }, "symbol");
}

TEST(RecordReaderTest, ReadsOnlyRegularFiles) {
  const std::string path = ::testing::TempDir() + "/cmarkov_record_reader";
  {
    std::ofstream out(path, std::ios::binary);
    out << "abc\n";
  }
  EXPECT_EQ(util::read_regular_file(path, "test"), "abc\n");
  EXPECT_THROW(util::read_regular_file(path + ".missing", "test"),
               std::runtime_error);
  EXPECT_THROW(util::read_regular_file("/dev/zero", "test"),
               std::runtime_error);
  EXPECT_THROW(util::read_regular_file(::testing::TempDir(), "test"),
               std::runtime_error);
  // A FIFO with no writer: refused at once, not waited on.
  const std::string fifo = ::testing::TempDir() + "/cmarkov_record_fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_THROW(util::read_regular_file(fifo, "test"), std::runtime_error);
  std::remove(fifo.c_str());
}

}  // namespace
}  // namespace cmarkov

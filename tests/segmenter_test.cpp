// Unit tests for n-gram segmentation and training-set deduplication.
#include <gtest/gtest.h>

#include "src/trace/segmenter.hpp"

namespace cmarkov::trace {
namespace {

hmm::ObservationSeq iota_sequence(std::size_t n) {
  hmm::ObservationSeq seq(n);
  for (std::size_t i = 0; i < n; ++i) seq[i] = i;
  return seq;
}

TEST(SegmenterTest, SlidingWindowsOfPaperLength) {
  const auto segments = segment_sequence(iota_sequence(20));
  // 20 - 15 + 1 sliding windows.
  ASSERT_EQ(segments.size(), 6u);
  for (const auto& s : segments) EXPECT_EQ(s.size(), 15u);
  EXPECT_EQ(segments[0][0], 0u);
  EXPECT_EQ(segments[5][0], 5u);
  EXPECT_EQ(segments[5][14], 19u);
}

TEST(SegmenterTest, ShortTraceKeptAsTailWhenEnabled) {
  SegmentOptions options;
  options.length = 15;
  options.keep_short_tail = true;
  const auto kept = segment_sequence(iota_sequence(7), options);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].size(), 7u);

  options.keep_short_tail = false;
  EXPECT_TRUE(segment_sequence(iota_sequence(7), options).empty());
}

TEST(SegmenterTest, EmptyAndExactLengthTraces) {
  EXPECT_TRUE(segment_sequence({}).empty());
  SegmentOptions options;
  options.length = 5;
  const auto exact = segment_sequence(iota_sequence(5), options);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0].size(), 5u);
}

TEST(SegmenterTest, RejectsZeroLength) {
  SegmentOptions bad;
  bad.length = 0;
  EXPECT_THROW(segment_sequence(iota_sequence(5), bad),
               std::invalid_argument);
}

TEST(SegmentSetTest, DeduplicatesAcrossTraces) {
  SegmentOptions options;
  options.length = 3;
  SegmentSet set(options);
  const hmm::ObservationSeq trace = {1, 2, 3, 1, 2, 3, 1, 2, 3};
  // Windows: 123 231 312 123 231 312 123 -> 3 unique.
  const std::size_t added = set.add_trace(trace);
  EXPECT_EQ(added, 3u);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.total_seen(), 7u);
  // Adding the same trace again adds nothing new.
  EXPECT_EQ(set.add_trace(trace), 0u);
  EXPECT_EQ(set.size(), 3u);
}

TEST(SegmentSetTest, AddSegmentReportsNovelty) {
  SegmentSet set;
  EXPECT_TRUE(set.add_segment({1, 2, 3}));
  EXPECT_FALSE(set.add_segment({1, 2, 3}));
  EXPECT_TRUE(set.add_segment({1, 2, 4}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(SegmentSetTest, ToVectorIsSortedAndStable) {
  SegmentSet set;
  set.add_segment({2, 1});
  set.add_segment({1, 2});
  set.add_segment({1, 1});
  const auto segments = set.to_vector();
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_TRUE(std::is_sorted(segments.begin(), segments.end()));
}

}  // namespace
}  // namespace cmarkov::trace

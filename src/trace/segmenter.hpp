// n-gram segmentation of call traces. The paper trains and classifies on
// sliding windows of 15 calls, slid one call at a time, with duplicate
// segments removed from training data to avoid bias.
#pragma once

#include <cstddef>
#include <set>
#include <vector>

#include "src/hmm/hmm.hpp"

namespace cmarkov::trace {

struct SegmentOptions {
  std::size_t length = 15;  ///< the paper's n
  /// Also emit a final shorter segment when the trace is shorter than
  /// `length` (short traces would otherwise contribute nothing).
  bool keep_short_tail = true;
};

/// Cuts one encoded trace into its sliding windows (step 1).
std::vector<hmm::ObservationSeq> segment_sequence(
    const hmm::ObservationSeq& encoded, const SegmentOptions& options = {});

/// Accumulates unique segments across traces (training-set deduplication).
class SegmentSet {
 public:
  explicit SegmentSet(SegmentOptions options = {}) : options_(options) {}

  /// Segments `encoded` and inserts each segment once. Returns how many new
  /// unique segments were added.
  std::size_t add_trace(const hmm::ObservationSeq& encoded);

  /// Inserts one pre-cut segment.
  bool add_segment(hmm::ObservationSeq segment);

  std::size_t size() const { return segments_.size(); }
  std::size_t total_seen() const { return total_seen_; }

  /// Unique segments in insertion-independent (sorted) order.
  std::vector<hmm::ObservationSeq> to_vector() const;

 private:
  SegmentOptions options_;
  std::set<hmm::ObservationSeq> segments_;
  std::size_t total_seen_ = 0;
};

}  // namespace cmarkov::trace

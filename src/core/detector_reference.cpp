// Detector::score_segment: the reference segment scorer, over
// hmm::forward_scaled. Built into the cmarkov_oracle library with the
// recursions it runs; production scores segments through
// ScoringKernel::score_window and Detector::classify.
#include <limits>
#include <utility>

#include "src/core/detector.hpp"
#include "src/hmm/forward_reference.hpp"

namespace cmarkov::core {

SegmentVerdict Detector::score_segment(
    const hmm::ObservationSeq& segment) const {
  return score_segment(segment, nullptr);
}

SegmentVerdict Detector::score_segment(const hmm::ObservationSeq& segment,
                                       hmm::ForwardResult* forward) const {
  SegmentVerdict verdict;
  for (std::size_t id : segment) {
    if (id >= hmm_.num_symbols()) {
      verdict.unknown_symbol = true;
      verdict.log_likelihood = -std::numeric_limits<double>::infinity();
      verdict.flagged = true;
      if (forward != nullptr) {
        // The forward recursion cannot consume out-of-vocabulary ids;
        // report an empty impossible pass instead of running it.
        *forward = hmm::ForwardResult{};
        forward->impossible = true;
        forward->log_likelihood = verdict.log_likelihood;
      }
      return verdict;
    }
  }
  hmm::ForwardResult local = hmm::forward_scaled(hmm_, segment);
  verdict.log_likelihood = local.log_likelihood;
  verdict.flagged = verdict.log_likelihood < threshold_;
  if (forward != nullptr) *forward = std::move(local);
  return verdict;
}

}  // namespace cmarkov::core

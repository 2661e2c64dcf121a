// The decision-audit record the reference recursion yields for a window,
// and an exact field-by-field comparison. Records in production are
// derived from a recorded DecisionEntry by the kernel's audit outputs
// (ScoringKernel::score_window with a WindowAudit); the tests hold them to
// this oracle, built from hmm::forward_scaled +
// per_symbol_log_contributions / per_symbol_argmax_states.
#pragma once

#include <gtest/gtest.h>

#include <limits>
#include <string_view>
#include <vector>

#include "src/core/decision_log.hpp"
#include "src/core/detector.hpp"
#include "src/hmm/forward_backward.hpp"
#include "src/obs/trace/decision_record.hpp"

namespace cmarkov::test_support {

inline obs::DecisionRecord reference_record(
    const core::Detector& detector, const hmm::ObservationSeq& window) {
  hmm::ForwardResult forward;
  const core::SegmentVerdict verdict = detector.score_segment(window, &forward);
  obs::DecisionRecord record;
  record.log_likelihood = verdict.log_likelihood;
  record.threshold = detector.threshold();
  record.margin = verdict.log_likelihood - detector.threshold();
  record.flagged = verdict.flagged;
  record.unknown_symbol = verdict.unknown_symbol;
  const std::vector<double> contributions =
      hmm::per_symbol_log_contributions(forward);
  const std::vector<std::size_t> states =
      hmm::per_symbol_argmax_states(forward);
  for (std::size_t t = 0; t < window.size(); ++t) {
    obs::SymbolContribution entry;
    entry.position = t;
    entry.symbol = window[t];
    entry.label = window[t] < detector.alphabet().size()
                      ? std::string_view(detector.alphabet().name(window[t]))
                      : std::string_view("<unknown>");
    entry.unknown = window[t] >= detector.model().num_symbols();
    if (verdict.unknown_symbol) {
      // No forward pass runs; the unknown symbols carry the -infinity.
      entry.log_prob =
          entry.unknown ? -std::numeric_limits<double>::infinity() : 0.0;
    } else {
      entry.log_prob = contributions[t];
      entry.state = states[t];
    }
    record.symbols.push_back(entry);
  }
  return record;
}

/// Exact equality of the scoring fields (doubles compared bit for bit);
/// the caller-stamped fields (window_index, session, alarm, ...) are not
/// part of the scoring contract.
inline void expect_same_record(const obs::DecisionRecord& actual,
                               const obs::DecisionRecord& expected) {
  EXPECT_EQ(actual.log_likelihood, expected.log_likelihood);
  EXPECT_EQ(actual.threshold, expected.threshold);
  EXPECT_EQ(actual.margin, expected.margin);
  EXPECT_EQ(actual.flagged, expected.flagged);
  EXPECT_EQ(actual.unknown_symbol, expected.unknown_symbol);
  ASSERT_EQ(actual.symbols.size(), expected.symbols.size());
  for (std::size_t t = 0; t < actual.symbols.size(); ++t) {
    const obs::SymbolContribution& a = actual.symbols[t];
    const obs::SymbolContribution& e = expected.symbols[t];
    EXPECT_EQ(a.position, e.position) << "t=" << t;
    EXPECT_EQ(a.symbol, e.symbol) << "t=" << t;
    EXPECT_EQ(a.label, e.label) << "t=" << t;
    EXPECT_EQ(a.log_prob, e.log_prob) << "t=" << t;
    EXPECT_EQ(a.state, e.state) << "t=" << t;
    EXPECT_EQ(a.unknown, e.unknown) << "t=" << t;
  }
}

/// expect_same_record of the record an entry derives when read.
inline void expect_same_record(const core::DecisionEntry& actual,
                               const obs::DecisionRecord& expected) {
  expect_same_record(actual.record(), expected);
}

}  // namespace cmarkov::test_support

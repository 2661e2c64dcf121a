// Tests for the public Detector facade: build/train/classify lifecycle and
// detection of context-violating attacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/attack/exploit_driver.hpp"
#include "src/core/detector.hpp"
#include "src/core/scoring_kernel.hpp"
#include "src/hmm/forward_reference.hpp"
#include "src/trace/segmenter.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::core {
namespace {

struct Fixture {
  workload::ProgramSuite suite = workload::make_gzip_suite();
  workload::TraceCollection collection =
      workload::collect_traces(suite, 30, 77);
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

DetectorConfig quick_config() {
  DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kSyscalls;
  config.training.max_iterations = 8;
  config.target_fp = 0.01;
  return config;
}

TEST(DetectorTest, BuildProducesUntrainedModel) {
  const Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  EXPECT_FALSE(detector.trained());
  EXPECT_GT(detector.num_states(), 0u);
  EXPECT_NO_THROW(detector.model().validate());
  EXPECT_GT(detector.build_timings().total("probability"), 0.0);
}

TEST(DetectorTest, ClassifyBeforeTrainingThrows) {
  const Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  EXPECT_THROW(detector.classify(fixture().collection.traces.front()),
               std::logic_error);
}

TEST(DetectorTest, TrainCalibratesThreshold) {
  Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  const auto report = detector.train(fixture().collection.traces);
  EXPECT_TRUE(detector.trained());
  EXPECT_GE(report.iterations, 1u);
  EXPECT_TRUE(std::isfinite(detector.threshold()));
}

TEST(DetectorTest, NormalTracesMostlyPass) {
  Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  detector.train(fixture().collection.traces);
  const auto fresh = workload::collect_traces(fixture().suite, 10, 555);
  std::size_t flagged_segments = 0;
  std::size_t total_segments = 0;
  for (const auto& trace : fresh.traces) {
    const TraceVerdict verdict = detector.classify(trace);
    flagged_segments += verdict.flagged_segments;
    total_segments += verdict.total_segments;
  }
  ASSERT_GT(total_segments, 0u);
  // Segment-level FP should be in the vicinity of the calibration target.
  EXPECT_LT(static_cast<double>(flagged_segments) /
                static_cast<double>(total_segments),
            0.1);
}

TEST(DetectorTest, DetectsRopAttacks) {
  Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  detector.train(fixture().collection.traces);
  const auto attacks =
      attack::build_attack_traces(fixture().suite, attack::gzip_payloads(),
                                  1234);
  ASSERT_FALSE(attacks.empty());
  for (const auto& attack : attacks) {
    const TraceVerdict verdict = detector.classify(attack.trace);
    EXPECT_TRUE(verdict.anomalous) << attack.payload_name;
    // At least one segment should be impossible (unknown context).
    bool unknown = false;
    for (const auto& sv : verdict.segments) {
      unknown = unknown || sv.unknown_symbol;
    }
    EXPECT_TRUE(unknown) << attack.payload_name;
  }
}

TEST(DetectorTest, ScoreReturnsMinSegmentLogLikelihood) {
  Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  detector.train(fixture().collection.traces);
  const auto& trace = fixture().collection.traces.front();
  const TraceVerdict verdict = detector.classify(trace);
  EXPECT_DOUBLE_EQ(detector.score(trace), verdict.min_log_likelihood);
}

TEST(DetectorTest, ThresholdOverrideChangesVerdicts) {
  Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  detector.train(fixture().collection.traces);
  const auto& trace = fixture().collection.traces.front();
  detector.set_threshold(-std::numeric_limits<double>::infinity());
  EXPECT_FALSE(detector.classify(trace).anomalous);
  detector.set_threshold(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(detector.classify(trace).anomalous);
}

TEST(DetectorTest, ContextInsensitiveVariantBuilds) {
  DetectorConfig config = quick_config();
  config.pipeline.context_sensitive = false;
  Detector detector = Detector::build(fixture().suite.module(), config);
  detector.train(fixture().collection.traces);
  const auto verdict = detector.classify(fixture().collection.traces[1]);
  EXPECT_GT(verdict.total_segments, 0u);
}

TEST(DetectorTest, TrainOnEmptyTracesThrows) {
  Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  EXPECT_THROW(detector.train({}), std::invalid_argument);
}

/// Every complete sliding window of the given traces, encoded through the
/// detector's alphabet exactly as the serving tier would (unknowns map to
/// alphabet().size(), the shared sentinel).
std::vector<hmm::ObservationSeq> sliding_windows(
    const Detector& detector, const workload::TraceCollection& collection) {
  const auto& config = detector.config();
  const auto encoding = config.pipeline.context_sensitive
                            ? hmm::ObservationEncoding::kContextSensitive
                            : hmm::ObservationEncoding::kContextFree;
  const std::size_t length = config.segments.length;
  std::vector<hmm::ObservationSeq> windows;
  for (const auto& trace : collection.traces) {
    hmm::ObservationSeq ids;
    for (const auto& event : trace.events) {
      if (!analysis::filter_matches(config.pipeline.filter, event.kind)) {
        continue;
      }
      const std::string obs =
          hmm::encode_observation(event.name, event.caller, encoding);
      ids.push_back(
          detector.alphabet().find(obs).value_or(detector.alphabet().size()));
    }
    for (std::size_t start = 0; start + length <= ids.size(); ++start) {
      windows.emplace_back(ids.begin() + start, ids.begin() + start + length);
    }
  }
  return windows;
}

TEST(DetectorTest, ScoringKernelBitIdenticalToReferenceForward) {
  // The compiled kernel performs the same floating-point operations in the
  // same order as hmm::forward_scaled, so its window log-likelihoods must
  // be EXACTLY equal to Detector::score_segment — for context-sensitive
  // and context-free models, and for windows holding the unknown sentinel.
  for (const bool context_sensitive : {true, false}) {
    DetectorConfig config = quick_config();
    config.pipeline.context_sensitive = context_sensitive;
    Detector detector = Detector::build(fixture().suite.module(), config);
    detector.train(fixture().collection.traces);
    const auto kernel = ScoringKernel::compile(detector);
    EXPECT_EQ(kernel->num_states(), detector.model().num_states());
    EXPECT_EQ(kernel->num_symbols(), detector.model().num_symbols());
    EXPECT_EQ(kernel->threshold(), detector.threshold());
    EXPECT_EQ(kernel->context_sensitive(), context_sensitive);

    auto windows = sliding_windows(
        detector, workload::collect_traces(fixture().suite, 5, 501));
    ASSERT_GT(windows.size(), 20u);
    // Force the -inf branch into the comparison set too.
    windows.push_back(windows.front());
    windows.back()[7] = detector.alphabet().size();

    KernelScratch scratch;
    for (const auto& window : windows) {
      const SegmentVerdict ref = detector.score_segment(window);
      const SegmentVerdict fast = kernel->score_window(window, scratch);
      EXPECT_EQ(ref.log_likelihood, fast.log_likelihood);  // exact bits
      EXPECT_EQ(ref.flagged, fast.flagged);
      EXPECT_EQ(ref.unknown_symbol, fast.unknown_symbol);
    }
  }
}

TEST(DetectorTest, ScoringKernelInternsLikeTheAlphabet) {
  Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  detector.train(fixture().collection.traces);
  const auto kernel = ScoringKernel::compile(detector);
  EXPECT_EQ(kernel->unknown_id(), detector.alphabet().size());
  // Piecewise name/caller hashing must agree with the alphabet lookup of
  // the rendered observation string for every event — including calls the
  // model never saw (both sides return the unknown sentinel).
  auto fresh = workload::collect_traces(fixture().suite, 3, 313);
  trace::CallEvent unseen;
  unseen.kind = ir::CallKind::kSyscall;
  unseen.name = "__not_in_any_profile__";
  unseen.caller = "nowhere";
  fresh.traces.front().events.push_back(unseen);
  for (const auto& trace : fresh.traces) {
    for (const auto& event : trace.events) {
      const std::string obs = hmm::encode_observation(
          event.name, event.caller,
          hmm::ObservationEncoding::kContextSensitive);
      const std::size_t expected =
          detector.alphabet().find(obs).value_or(detector.alphabet().size());
      EXPECT_EQ(kernel->find_observation(event.name, event.caller), expected);
      EXPECT_EQ(kernel->find_symbol(obs), expected);
    }
  }
}

TEST(DetectorTest, ScoringKernelRejectsUntrainedDetector) {
  // The serve tier never compiles against an untrained detector.
  const Detector untrained =
      Detector::build(fixture().suite.module(), quick_config());
  EXPECT_THROW(ScoringKernel::compile(untrained), std::invalid_argument);
}

TEST(DetectorTest, CalibrationPicksTheReferenceScoreQuantile) {
  // calibrate_threshold scores with the production forward_pass; the
  // threshold must be the exact target_fp quantile of the reference
  // forward_scaled scores, bit for bit.
  Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  detector.train(fixture().collection.traces);
  const hmm::Hmm& model = detector.model();
  std::vector<hmm::ObservationSeq> segments;
  for (const auto& trace : fixture().collection.traces) {
    for (auto& segment : detector.encode_trace_segments(trace)) {
      segments.push_back(std::move(segment));
    }
  }
  ASSERT_GT(segments.size(), 20u);
  std::vector<double> reference;
  for (const auto& segment : segments) {
    reference.push_back(hmm::forward_scaled(model, segment).log_likelihood);
  }
  std::sort(reference.begin(), reference.end());
  for (const double target_fp : {0.0, 0.01, 0.1, 0.5}) {
    const auto budget = static_cast<std::size_t>(
        std::floor(target_fp * static_cast<double>(reference.size())));
    EXPECT_EQ(calibrate_threshold(model, segments, target_fp),
              reference[budget])
        << target_fp;
  }

  segments.back().back() = model.num_symbols();
  EXPECT_THROW(calibrate_threshold(model, segments, 0.01), std::out_of_range);
}

/// classify's per-segment verdicts against score_segment's reference
/// recursion, exact doubles.
void expect_classify_matches_reference(const Detector& detector,
                                       const trace::Trace& trace) {
  const TraceVerdict verdict = detector.classify(trace);
  const auto& config = detector.config();
  const auto segments = trace::segment_sequence(
      trace::encode_trace_frozen(
          trace, config.pipeline.filter,
          config.pipeline.context_sensitive
              ? hmm::ObservationEncoding::kContextSensitive
              : hmm::ObservationEncoding::kContextFree,
          detector.alphabet(), detector.alphabet().size()),
      config.segments);
  ASSERT_EQ(verdict.segments.size(), segments.size());
  ASSERT_EQ(verdict.total_segments, segments.size());
  double min_ll = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentVerdict ref = detector.score_segment(segments[i]);
    EXPECT_EQ(verdict.segments[i].log_likelihood, ref.log_likelihood) << i;
    EXPECT_EQ(verdict.segments[i].flagged, ref.flagged) << i;
    EXPECT_EQ(verdict.segments[i].unknown_symbol, ref.unknown_symbol) << i;
    min_ll = std::min(min_ll, ref.log_likelihood);
  }
  if (!segments.empty()) {
    EXPECT_EQ(verdict.min_log_likelihood, min_ll);
    EXPECT_EQ(detector.score(trace), min_ll);
  }
}

TEST(DetectorTest, ClassifyMatchesTheReferenceRecursion) {
  // classify and score run forward_pass on two rows; every segment verdict
  // must be score_segment's, bit for bit, on normal and attack traces.
  Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  detector.train(fixture().collection.traces);
  for (const auto& trace :
       workload::collect_traces(fixture().suite, 4, 808).traces) {
    expect_classify_matches_reference(detector, trace);
  }
  for (const auto& attack : attack::build_attack_traces(
           fixture().suite, attack::gzip_payloads(), 1234)) {
    expect_classify_matches_reference(detector, attack.trace);
  }
}

TEST(DetectorTest, ClassifyMatchesTheReferenceOnUnknownAndImpossible) {
  // Two states that each emit one symbol and never leave: "a" after "b"
  // has probability 0 (an impossible window, LL -infinity without an
  // unknown symbol), and "c" is outside the alphabet (unknown).
  DetectorConfig config = quick_config();
  config.segments.length = 3;
  hmm::Hmm model;
  model.initial = {0.5, 0.5};
  model.transition = Matrix::identity(2);
  model.emission = Matrix::identity(2);
  hmm::Alphabet alphabet;
  alphabet.intern("a@main");
  alphabet.intern("b@main");
  const Detector detector =
      Detector::from_parts(config, model, alphabet, -3.0, true);
  trace::Trace trace;
  for (const char* name : {"a", "a", "a", "a", "b", "b", "b", "c", "b"}) {
    trace::CallEvent event;
    event.kind = ir::CallKind::kSyscall;
    event.name = name;
    event.caller = "main";
    trace.events.push_back(event);
  }
  const TraceVerdict verdict = detector.classify(trace);
  ASSERT_EQ(verdict.segments.size(), 7u);
  EXPECT_FALSE(verdict.segments[0].flagged);  // a a a
  EXPECT_EQ(verdict.segments[2].log_likelihood,  // a a b
            -std::numeric_limits<double>::infinity());
  EXPECT_FALSE(verdict.segments[2].unknown_symbol);
  EXPECT_TRUE(verdict.segments[5].unknown_symbol);  // b b c
  expect_classify_matches_reference(detector, trace);
}

TEST(DetectorTest, DynamicOnlySymbolsExtendEmission) {
  // Train with traces containing symbols the static model never saw: the
  // emission matrix must widen to cover them.
  Detector detector =
      Detector::build(fixture().suite.module(), quick_config());
  const std::size_t before = detector.model().num_symbols();
  auto traces = fixture().collection.traces;
  trace::CallEvent weird;
  weird.kind = ir::CallKind::kSyscall;
  weird.name = "exotic_syscall";
  weird.caller = "main";
  for (int i = 0; i < 20; ++i) traces[0].events.push_back(weird);
  detector.train(traces);
  EXPECT_GT(detector.model().num_symbols(), before);
  EXPECT_NO_THROW(detector.model().validate());
}

}  // namespace
}  // namespace cmarkov::core

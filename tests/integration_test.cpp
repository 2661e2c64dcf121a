// Integration tests: the full paper pipeline — program analysis, model
// building, training, comparison of the four models, and exploit detection
// — exercised end to end on real suites.
#include <gtest/gtest.h>

#include <cmath>

#include "src/attack/exploit_driver.hpp"
#include "src/core/detector.hpp"
#include "src/core/pipeline.hpp"
#include "src/eval/comparison.hpp"
#include "src/hmm/forward_reference.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov {
namespace {

eval::ComparisonOptions quick_options() {
  eval::ComparisonOptions options;
  options.test_cases = 25;
  options.abnormal_count = 300;
  options.cv.folds = 2;
  options.cv.max_train_segments = 200;
  options.training.max_iterations = 6;
  options.seed = 3;
  return options;
}

TEST(IntegrationTest, StaticPipelineOnEverySuiteAndFilter) {
  for (const auto& name : workload::all_suite_names()) {
    const workload::ProgramSuite suite = workload::make_suite(name);
    for (const auto filter :
         {analysis::CallFilter::kSyscalls, analysis::CallFilter::kLibcalls}) {
      core::PipelineConfig config;
      config.filter = filter;
      Rng rng(1);
      const auto result =
          core::run_static_pipeline(suite.module(), config, rng);
      EXPECT_GT(result.distinct_calls, 0u) << name;
      EXPECT_NO_THROW(result.init.model.validate()) << name;
      // Phase timings recorded for Table V.
      EXPECT_GT(result.timings.total("cfg"), 0.0);
      EXPECT_GT(result.timings.total("probability"), 0.0);
      EXPECT_GT(result.timings.total("aggregation"), 0.0);
    }
  }
}

TEST(IntegrationTest, StaticModelScoresLegitimateTracesBeforeTraining) {
  // The statically initialized model must already assign finite likelihood
  // to most dynamically observed behaviour — the core STILO/CMarkov claim
  // that static analysis covers paths training data misses.
  const workload::ProgramSuite suite = workload::make_grep_suite();
  core::PipelineConfig config;
  config.filter = analysis::CallFilter::kSyscalls;
  Rng rng(2);
  auto pipeline = core::run_static_pipeline(suite.module(), config, rng);

  const auto collection = workload::collect_traces(suite, 30, 4);
  std::size_t finite = 0;
  std::size_t total = 0;
  for (const auto& trace : collection.traces) {
    const auto encoded = trace::encode_trace_frozen(
        trace, config.filter, hmm::ObservationEncoding::kContextSensitive,
        pipeline.alphabet, pipeline.alphabet.size());
    for (std::size_t start = 0; start + 15 <= encoded.size(); start += 15) {
      hmm::ObservationSeq segment(encoded.begin() + start,
                                  encoded.begin() + start + 15);
      bool in_alphabet = true;
      for (auto id : segment) {
        in_alphabet = in_alphabet && id < pipeline.alphabet.size();
      }
      ++total;
      if (in_alphabet &&
          std::isfinite(
              hmm::sequence_log_likelihood(pipeline.init.model, segment))) {
        ++finite;
      }
    }
  }
  ASSERT_GT(total, 20u);
  EXPECT_GT(static_cast<double>(finite) / static_cast<double>(total), 0.9);
}

TEST(IntegrationTest, FourModelComparisonReproducesPaperOrdering) {
  const workload::ProgramSuite suite = workload::make_vim_suite();
  const auto comparison = eval::compare_models(
      suite, analysis::CallFilter::kLibcalls, quick_options());
  ASSERT_EQ(comparison.models.size(), 4u);

  const double cmarkov =
      eval::fn_at_fp(comparison.model(eval::ModelKind::kCMarkov).scores, 0.05);
  const double stilo =
      eval::fn_at_fp(comparison.model(eval::ModelKind::kStilo).scores, 0.05);
  const double basic = eval::fn_at_fp(
      comparison.model(eval::ModelKind::kRegularBasic).scores, 0.05);

  // Headline result on libcalls: CMarkov dominates the context-free static
  // model, and both dominate the random baseline.
  EXPECT_LE(cmarkov, stilo + 1e-9);
  EXPECT_LT(cmarkov, basic);
  EXPECT_LT(stilo, basic);
}

TEST(IntegrationTest, ContextSensitiveAlphabetIsLargerOnLibcalls) {
  const workload::ProgramSuite suite = workload::make_bash_suite();
  const auto comparison = eval::compare_models(
      suite, analysis::CallFilter::kLibcalls, quick_options());
  const auto& cmarkov = comparison.model(eval::ModelKind::kCMarkov);
  const auto& stilo = comparison.model(eval::ModelKind::kStilo);
  // The paper attributes the libcall gap to context multiplying the
  // distinct-call set (bash: 1366 context-sensitive states).
  EXPECT_GT(cmarkov.alphabet_size, stilo.alphabet_size);
}

TEST(IntegrationTest, DetectorCatchesAllTable4PayloadsOnProftpd) {
  const workload::ProgramSuite suite = workload::make_proftpd_suite();
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kSyscalls;
  config.training.max_iterations = 6;
  core::Detector detector = core::Detector::build(suite.module(), config);
  const auto collection = workload::collect_traces(suite, 30, 8);
  detector.train(collection.traces);

  const auto payloads = attack::proftpd_backdoor_payloads();
  const auto attacks = attack::build_attack_traces(suite, payloads, 17);
  std::size_t detected = 0;
  for (const auto& attack : attacks) {
    if (detector.classify(attack.trace).anomalous) ++detected;
  }
  EXPECT_EQ(detected, attacks.size());
}

TEST(IntegrationTest, TrainedModelKeepsSegmentFpNearTarget) {
  const workload::ProgramSuite suite = workload::make_sed_suite();
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kLibcalls;
  config.training.max_iterations = 8;
  config.target_fp = 0.02;
  core::Detector detector = core::Detector::build(suite.module(), config);
  detector.train(workload::collect_traces(suite, 30, 9).traces);

  const auto fresh = workload::collect_traces(suite, 15, 1009);
  std::size_t flagged = 0;
  std::size_t total = 0;
  for (const auto& trace : fresh.traces) {
    const auto verdict = detector.classify(trace);
    flagged += verdict.flagged_segments;
    total += verdict.total_segments;
  }
  ASSERT_GT(total, 100u);
  EXPECT_LT(static_cast<double>(flagged) / static_cast<double>(total), 0.15);
}

TEST(IntegrationTest, ComparisonRunsOnServersSyscalls) {
  const workload::ProgramSuite suite = workload::make_nginx_suite();
  auto options = quick_options();
  options.kinds = {eval::ModelKind::kCMarkov, eval::ModelKind::kRegularBasic};
  const auto comparison =
      eval::compare_models(suite, analysis::CallFilter::kSyscalls, options);
  ASSERT_EQ(comparison.models.size(), 2u);
  EXPECT_GT(comparison.unique_normal_segments, 50u);
  EXPECT_EQ(comparison.abnormal_segments, options.abnormal_count);
  // Scores populated for both models.
  for (const auto& model : comparison.models) {
    EXPECT_FALSE(model.scores.normal.empty());
    EXPECT_EQ(model.scores.abnormal.size(),
              options.abnormal_count * options.cv.folds);
  }
}

}  // namespace
}  // namespace cmarkov

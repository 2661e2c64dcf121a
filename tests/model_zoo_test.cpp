// Tests for the four-model zoo, parameterized over every model kind.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/eval/model_zoo.hpp"
#include "src/hmm/forward_reference.hpp"
#include "src/hmm/trainer.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::eval {
namespace {

struct Fixture {
  workload::ProgramSuite suite = workload::make_gzip_suite();
  workload::TraceCollection collection =
      workload::collect_traces(suite, 15, 21);
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

class ModelKindTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelKindTest, BuildsValidModel) {
  auto& f = fixture();
  ModelBuildOptions options;
  options.filter = analysis::CallFilter::kSyscalls;
  Rng rng(1);
  const BuiltModel model =
      build_model(GetParam(), f.suite, f.collection.traces, options, rng);
  EXPECT_EQ(model.kind, GetParam());
  EXPECT_NO_THROW(model.hmm().validate());
  EXPECT_GT(model.num_states, 0u);
  EXPECT_GT(model.alphabet.size(), 0u);
  EXPECT_EQ(model.hmm().num_symbols(), model.alphabet.size());
}

TEST_P(ModelKindTest, EncodingMatchesKind) {
  EXPECT_EQ(encoding_of(GetParam()) ==
                hmm::ObservationEncoding::kContextSensitive,
            GetParam() == ModelKind::kCMarkov ||
                GetParam() == ModelKind::kRegularContext);
}

TEST_P(ModelKindTest, ScoresNormalSegmentsFinitely) {
  auto& f = fixture();
  ModelBuildOptions options;
  options.filter = analysis::CallFilter::kSyscalls;
  Rng rng(2);
  const BuiltModel model =
      build_model(GetParam(), f.suite, f.collection.traces, options, rng);
  const auto encoded = model.encode(f.collection.traces.front());
  ASSERT_GE(encoded.size(), 15u);
  const hmm::ObservationSeq segment(encoded.begin(), encoded.begin() + 15);
  const double score = model.score(segment);
  EXPECT_TRUE(std::isfinite(score));
  EXPECT_LT(score, 0.0);
}

TEST_P(ModelKindTest, ScoreMatchesTheReferenceBitwise) {
  // score() runs forward_pass over a B^T cached by set_hmm; every window of
  // a trace, the empty segment and an unknown id must score exactly as
  // forward_scaled does, before and after a trained model replaces the
  // built one.
  auto& f = fixture();
  ModelBuildOptions options;
  options.filter = analysis::CallFilter::kSyscalls;
  Rng rng(4);
  BuiltModel model =
      build_model(GetParam(), f.suite, f.collection.traces, options, rng);
  const auto encoded = model.encode(f.collection.traces.front());
  ASSERT_GE(encoded.size(), 15u);
  std::vector<hmm::ObservationSeq> segments = {{}};
  for (std::size_t start = 0; start + 15 <= encoded.size(); ++start) {
    segments.emplace_back(encoded.begin() + start,
                          encoded.begin() + start + 15);
  }
  hmm::ObservationSeq unknown = segments.back();
  unknown[7] = model.hmm().num_symbols();

  const auto check = [&] {
    for (const hmm::ObservationSeq& segment : segments) {
      EXPECT_EQ(model.score(segment),
                hmm::forward_scaled(model.hmm(), segment).log_likelihood);
    }
    EXPECT_EQ(model.score({}), 0.0);
    EXPECT_EQ(model.score(unknown), -std::numeric_limits<double>::infinity());
  };
  check();
  hmm::TrainingOptions training;
  training.max_iterations = 2;
  hmm::Trainer trainer(model.hmm(), training);
  trainer.fit({segments.begin() + 1, segments.end()});
  model.set_hmm(trainer.model());
  check();
}

TEST_P(ModelKindTest, UnknownContextScoresImpossible) {
  auto& f = fixture();
  ModelBuildOptions options;
  options.filter = analysis::CallFilter::kSyscalls;
  Rng rng(3);
  const BuiltModel model =
      build_model(GetParam(), f.suite, f.collection.traces, options, rng);
  attack::EventSegment segment(15);
  for (auto& event : segment) {
    event.kind = ir::CallKind::kSyscall;
    event.name = "read";
    event.caller = "totally_bogus_function";
  }
  const double score = model.score(model.encode(segment));
  if (encoding_of(GetParam()) ==
      hmm::ObservationEncoding::kContextSensitive) {
    // read@totally_bogus_function is out of alphabet -> impossible.
    EXPECT_TRUE(std::isinf(score));
  } else {
    // Context-free models cannot see the wrong caller.
    EXPECT_TRUE(std::isfinite(score));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ModelKindTest, ::testing::ValuesIn(all_model_kinds()),
    [](const auto& info) {
      std::string name = model_kind_name(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(ModelZooTest, KindMetadata) {
  EXPECT_EQ(model_kind_name(ModelKind::kCMarkov), "CMarkov");
  EXPECT_EQ(model_kind_name(ModelKind::kStilo), "STILO");
  EXPECT_EQ(model_kind_name(ModelKind::kRegularContext), "Regular-context");
  EXPECT_EQ(model_kind_name(ModelKind::kRegularBasic), "Regular-basic");
  EXPECT_TRUE(is_statically_initialized(ModelKind::kCMarkov));
  EXPECT_TRUE(is_statically_initialized(ModelKind::kStilo));
  EXPECT_FALSE(is_statically_initialized(ModelKind::kRegularContext));
  EXPECT_FALSE(is_statically_initialized(ModelKind::kRegularBasic));
  EXPECT_EQ(all_model_kinds().size(), 4u);
}

TEST(ModelZooTest, RegularModelStateCountEqualsObservedCalls) {
  auto& f = fixture();
  ModelBuildOptions options;
  options.filter = analysis::CallFilter::kLibcalls;
  Rng rng(4);
  const BuiltModel model = build_model(
      ModelKind::kRegularBasic, f.suite, f.collection.traces, options, rng);
  // Section V-A: hidden states = number of distinct calls in traces.
  EXPECT_EQ(model.num_states, model.alphabet.size());
}

TEST(ModelZooTest, FinerContextGranularitiesGrowTheAlphabet) {
  auto& f = fixture();
  ModelBuildOptions options;
  options.filter = analysis::CallFilter::kLibcalls;
  Rng rng(9);
  const BuiltModel caller = build_model(
      ModelKind::kRegularContext, f.suite, f.collection.traces, options, rng);
  const BuiltModel site = build_model(
      ModelKind::kRegularSite, f.suite, f.collection.traces, options, rng);
  const BuiltModel deep = build_model(
      ModelKind::kRegularDeep, f.suite, f.collection.traces, options, rng);
  // Finer context can only split observation classes further.
  EXPECT_GE(site.alphabet.size(), caller.alphabet.size());
  EXPECT_GE(deep.alphabet.size(), caller.alphabet.size());
  EXPECT_EQ(extended_model_kinds().size(), 6u);
  EXPECT_EQ(model_kind_name(ModelKind::kRegularDeep), "Regular-deep");
}

TEST(ModelZooTest, ContextModelsHaveRicherAlphabets) {
  auto& f = fixture();
  ModelBuildOptions options;
  options.filter = analysis::CallFilter::kLibcalls;
  Rng rng(5);
  const BuiltModel basic = build_model(
      ModelKind::kRegularBasic, f.suite, f.collection.traces, options, rng);
  const BuiltModel context =
      build_model(ModelKind::kRegularContext, f.suite, f.collection.traces,
                  options, rng);
  EXPECT_GT(context.alphabet.size(), basic.alphabet.size());
}

TEST(ModelZooTest, StiloRecordsStaticCallsWithoutContext) {
  auto& f = fixture();
  ModelBuildOptions options;
  options.filter = analysis::CallFilter::kSyscalls;
  Rng rng(6);
  const BuiltModel cmarkov = build_model(
      ModelKind::kCMarkov, f.suite, f.collection.traces, options, rng);
  const BuiltModel stilo = build_model(
      ModelKind::kStilo, f.suite, f.collection.traces, options, rng);
  EXPECT_GT(cmarkov.static_calls, 0u);
  EXPECT_GT(stilo.static_calls, 0u);
  // Context merging can only shrink the distinct-call set.
  EXPECT_LE(stilo.static_calls, cmarkov.static_calls);
}

TEST(ModelZooTest, ClusteringReducesCMarkovStates) {
  auto& f = fixture();
  ModelBuildOptions options;
  options.filter = analysis::CallFilter::kLibcalls;
  options.clustering.min_calls_for_reduction = 0;  // force reduction
  Rng rng(7);
  const BuiltModel clustered = build_model(
      ModelKind::kCMarkov, f.suite, f.collection.traces, options, rng);
  EXPECT_LT(clustered.num_states, clustered.static_calls);
  // Roughly the paper's 1/3 target.
  EXPECT_NEAR(static_cast<double>(clustered.num_states),
              static_cast<double>(clustered.static_calls) / 3.0, 2.0);
}

TEST(ModelZooTest, RegularModelRejectsEmptyTraces) {
  auto& f = fixture();
  ModelBuildOptions options;
  options.filter = analysis::CallFilter::kSyscalls;
  Rng rng(8);
  EXPECT_THROW(
      build_model(ModelKind::kRegularBasic, f.suite, {}, options, rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace cmarkov::eval

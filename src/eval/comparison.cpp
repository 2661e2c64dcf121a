#include "src/eval/comparison.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "src/hmm/trainer.hpp"
#include "src/trace/segmenter.hpp"
#include "src/util/stopwatch.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::eval {

const ModelEvaluation& SuiteComparison::model(ModelKind kind) const {
  for (const auto& m : models) {
    if (m.kind == kind) return m;
  }
  throw std::invalid_argument("SuiteComparison: model not evaluated: " +
                              model_kind_name(kind));
}

SuiteComparison compare_models(const workload::ProgramSuite& suite,
                               analysis::CallFilter filter,
                               const ComparisonOptions& options) {
  SuiteComparison result;
  result.program = suite.info().name;
  result.filter = filter;

  // Normal traces and the shared abnormal corpus (event level, so every
  // model judges identical behaviour).
  const workload::TraceCollection collection =
      workload::collect_traces(suite, options.test_cases, options.seed);
  result.traces = collection.traces.size();

  Rng rng(options.seed ^ 0xc0ffee);
  const auto legitimate =
      attack::legitimate_call_set(collection.traces, filter);
  const auto normal_event_segments = attack::event_segments(
      collection.traces, filter, options.segment_length);
  if (normal_event_segments.empty()) {
    throw std::invalid_argument("compare_models: traces too short for " +
                                analysis::call_filter_name(filter) +
                                " segments");
  }
  attack::AbnormalSOptions abnormal_options;
  abnormal_options.segment_length = options.segment_length;
  const auto abnormal_segments = attack::generate_abnormal_s(
      normal_event_segments, legitimate, options.abnormal_count, rng,
      abnormal_options);
  result.abnormal_segments = abnormal_segments.size();

  ModelBuildOptions build = options.build;
  build.filter = filter;
  build.exec.adopt_runtime(options.exec);
  hmm::TrainingOptions training = options.training;
  training.exec.adopt_runtime(options.exec);
  CrossValidationOptions cv = options.cv;
  cv.exec.adopt_runtime(options.exec);

  for (ModelKind kind : options.kinds) {
    Rng model_rng = rng.fork();
    BuiltModel model =
        build_model(kind, suite, collection.traces, build, model_rng);

    // Encode + dedup normal segments under this model's encoding.
    trace::SegmentOptions seg_options;
    seg_options.length = options.segment_length;
    seg_options.keep_short_tail = false;
    trace::SegmentSet unique_segments(seg_options);
    for (const auto& trace : collection.traces) {
      unique_segments.add_trace(model.encode(trace));
    }
    std::vector<hmm::ObservationSeq> segments = unique_segments.to_vector();
    if (kind == options.kinds.front()) {
      result.unique_normal_segments = segments.size();
    }

    std::vector<hmm::ObservationSeq> encoded_abnormal;
    encoded_abnormal.reserve(abnormal_segments.size());
    for (const auto& segment : abnormal_segments) {
      encoded_abnormal.push_back(model.encode(segment));
    }

    ModelEvaluation evaluation;
    evaluation.kind = kind;
    evaluation.num_states = model.num_states;
    evaluation.alphabet_size = model.alphabet.size();
    evaluation.static_calls = model.static_calls;

    Rng fold_rng = model_rng.fork();
    const auto folds = k_fold_splits(segments, fold_rng, cv);
    for (const auto& fold : folds) {
      Stopwatch watch;
      hmm::Trainer trainer(model.hmm(), training);  // fresh from the init
      const hmm::TrainingReport report =
          trainer.fit(fold.train, fold.termination);
      evaluation.train_seconds += watch.seconds();
      evaluation.train_iterations += report.iterations;

      // Score through a fold-local model so unknown-symbol handling in
      // BuiltModel::score applies.
      BuiltModel fold_model = model;
      fold_model.set_hmm(trainer.model());
      for (const auto& segment : fold.test) {
        evaluation.scores.normal.push_back(fold_model.score(segment));
      }
      for (const auto& segment : encoded_abnormal) {
        evaluation.scores.abnormal.push_back(fold_model.score(segment));
      }
    }
    result.models.push_back(std::move(evaluation));
  }
  return result;
}

bool full_mode_enabled(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  const char* env = std::getenv("CMARKOV_FULL");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

ComparisonOptions default_comparison_options(bool full) {
  ComparisonOptions options;
  // Training is bit-identical at any thread count (see baum_welch.hpp), so
  // the figure benches default to one worker per hardware core.
  options.exec.threads = 0;
  if (full) {
    options.test_cases = 200;
    options.abnormal_count = 4000;
    options.cv.folds = 10;
    // Paper-scale protocol, but the O(T S^2) training cost is bounded so a
    // full figure sweep finishes in tens of minutes rather than days.
    options.cv.max_train_segments = 1500;
    options.training.max_iterations = 20;
  } else {
    options.test_cases = 40;
    options.abnormal_count = 800;
    options.cv.folds = 3;
    options.cv.max_train_segments = 250;
    options.training.max_iterations = 8;
  }
  return options;
}

}  // namespace cmarkov::eval

// Microbenchmarks (google-benchmark): HMM kernel costs underlying the
// paper's performance notes — 15-call segment scoring (paper: 0.038 ms for
// the glibc CMarkov model) and the O(T S^2) Baum-Welch iteration that
// motivates state reduction.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/hmm/trainer.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/obs/run_profile.hpp"
#include "src/hmm/forward_backward.hpp"
#include "src/hmm/forward_reference.hpp"
#include "src/hmm/random_init.hpp"
#include "src/hmm/viterbi.hpp"
#include "src/trace/segmenter.hpp"
#include "src/workload/testcase_generator.hpp"

namespace {

using namespace cmarkov;

hmm::Hmm model_with_states(std::size_t states) {
  Rng rng(states * 17 + 1);
  return hmm::randomly_initialized_hmm(states, states, rng);
}

hmm::ObservationSeq segment_for(const hmm::Hmm& model, std::size_t length) {
  Rng rng(99);
  hmm::ObservationSeq seq(length);
  for (auto& s : seq) s = rng.index(model.num_symbols());
  return seq;
}

// The serve models' state counts (perfbench `stream`), then the paper's
// larger CMarkov models.
constexpr int kScoringStates[] = {25, 36, 39, 50, 64, 128, 372};

void reference_sizes(benchmark::internal::Benchmark* bench) {
  for (const int states : kScoringStates) bench->Arg(states);
}

// {states, build}: each production pass once per build, 0 = baseline and
// 1 = AVX2 (hmm::PassBuild).
void scoring_builds(benchmark::internal::Benchmark* bench) {
  for (const int build : {0, 1}) {
    for (const int states : kScoringStates) bench->Args({states, build});
  }
}

void serve_sizes(benchmark::internal::Benchmark* bench) {
  for (const int states : {25, 36, 39, 50}) bench->Arg(states);
}

void estep_builds(benchmark::internal::Benchmark* bench) {
  for (const int build : {0, 1}) {
    for (const int states : {25, 36, 39, 50, 64}) bench->Args({states, build});
  }
}

// The build a row runs, or null (the row is skipped) for AVX2 on a CPU
// without it.
const hmm::PassBuild* pass_build(benchmark::State& state) {
  if (state.range(1) == 0) return &hmm::baseline_passes();
  if (const hmm::PassBuild* avx2 = hmm::avx2_passes()) return avx2;
  state.SkipWithError("this CPU has no AVX2");
  return nullptr;
}

std::string build_label(const benchmark::State& state, const char* what) {
  return std::string("15-call segment, ") + what +
         (state.range(1) == 0 ? ", baseline" : ", avx2");
}

// Production scoring: forward_pass over the ForwardTables layout with two
// ping-pong alpha rows, as the ScoringKernel scores a window.
void BM_SegmentScoring(benchmark::State& state) {
  const hmm::PassBuild* build = pass_build(state);
  if (build == nullptr) return;
  const auto model = model_with_states(static_cast<std::size_t>(state.range(0)));
  const auto segment = segment_for(model, 15);
  const Matrix emission_t = model.emission.transposed();
  const hmm::ForwardTables tables = hmm::forward_tables(model, emission_t);
  std::vector<double> rows(2 * model.num_states());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build->forward_pass(tables, segment, {.alpha = rows.data()}));
  }
  state.SetLabel(build_label(state, "forward_pass"));
}
BENCHMARK(BM_SegmentScoring)->Apply(scoring_builds);

// The reference recursion (hmm::forward_scaled) the tests hold
// forward_pass to; it allocates its T x N result on every call.
void BM_SegmentScoringReference(benchmark::State& state) {
  const auto model = model_with_states(static_cast<std::size_t>(state.range(0)));
  const auto segment = segment_for(model, 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmm::sequence_log_likelihood(model, segment));
  }
  state.SetLabel("15-call segment, forward_scaled");
}
BENCHMARK(BM_SegmentScoringReference)->Apply(reference_sizes);

// The E-step's tables and one 15-call segment's kept forward rows, as the
// Trainer holds them for its backward pass and expected transitions.
struct EStepSegment {
  explicit EStepSegment(std::size_t states)
      : model(model_with_states(states)),
        segment(segment_for(model, 15)),
        emission_t(model.emission.transposed()),
        transition_t(model.transition.transposed()),
        tables(hmm::forward_tables(model, emission_t, transition_t)),
        alpha(segment.size() * states),
        scales(segment.size()),
        beta(segment.size() * states) {
    hmm::forward_pass(tables, segment,
                      {.alpha = alpha.data(), .keep_rows = true,
                       .scales = scales.data()});
    hmm::backward_pass(tables, segment, scales, beta.data());
  }

  hmm::Hmm model;
  hmm::ObservationSeq segment;
  Matrix emission_t;
  Matrix transition_t;
  hmm::ForwardTables tables;
  std::vector<double> alpha;
  std::vector<double> scales;
  std::vector<double> beta;
};

// The E-step's backward recursion: destinations outer over A^T.
void BM_BackwardPass(benchmark::State& state) {
  const hmm::PassBuild* build = pass_build(state);
  if (build == nullptr) return;
  EStepSegment e(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    build->backward_pass(e.tables, e.segment, e.scales, e.beta.data());
    benchmark::DoNotOptimize(e.beta.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(build_label(state, "backward_pass"));
}
BENCHMARK(BM_BackwardPass)->Apply(estep_builds);

// The E-step's xi: one segment's expected transition counts.
void BM_ExpectedTransitions(benchmark::State& state) {
  const hmm::PassBuild* build = pass_build(state);
  if (build == nullptr) return;
  EStepSegment e(static_cast<std::size_t>(state.range(0)));
  std::vector<double> counts(e.model.num_states() * e.model.num_states());
  for (auto _ : state) {
    build->accumulate_expected_transitions(e.tables, e.segment, e.alpha.data(),
                                           e.beta.data(), counts.data());
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(build_label(state, "accumulate_expected_transitions"));
}
BENCHMARK(BM_ExpectedTransitions)->Apply(estep_builds);

void BM_ViterbiDecode(benchmark::State& state) {
  const auto model = model_with_states(static_cast<std::size_t>(state.range(0)));
  const auto segment = segment_for(model, 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmm::viterbi_decode(model, segment));
  }
}
BENCHMARK(BM_ViterbiDecode)->Arg(32)->Arg(128);

void BM_BaumWelchIteration(benchmark::State& state) {
  const auto model = model_with_states(static_cast<std::size_t>(state.range(0)));
  std::vector<hmm::ObservationSeq> data;
  for (int i = 0; i < 50; ++i) data.push_back(segment_for(model, 15));
  hmm::TrainingOptions options;
  options.max_iterations = 1;
  options.min_improvement = -1.0;
  for (auto _ : state) {
    hmm::Trainer trainer(model, options);
    trainer.fit(data);
    benchmark::DoNotOptimize(trainer.model());
  }
  state.SetLabel("50 segments x 1 iteration");
}
// The O(T S^2) scaling the Table II reduction exploits: 3x fewer states ->
// ~9x faster iterations. At the serve models' sizes this is the E-step
// case: forward, backward and expected transitions per segment dominate a
// single-threaded iteration, the M-step being O(N^2 + NM).
BENCHMARK(BM_BaumWelchIteration)
    ->Apply(serve_sizes)
    ->Arg(40)
    ->Arg(120)
    ->Arg(360);

void BM_BaumWelchIterationThreads(benchmark::State& state) {
  const auto model = model_with_states(static_cast<std::size_t>(state.range(0)));
  std::vector<hmm::ObservationSeq> data;
  for (int i = 0; i < 50; ++i) data.push_back(segment_for(model, 15));
  hmm::TrainingOptions options;
  options.max_iterations = 1;
  options.min_improvement = -1.0;
  options.exec.threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    hmm::Trainer trainer(model, options);
    trainer.fit(data);
    benchmark::DoNotOptimize(trainer.model());
  }
  state.SetLabel("50 segments x 1 iteration, " +
                 std::to_string(state.range(1)) + " threads");
}
// Thread scaling of the parallel E-step at the paper's two largest model
// sizes (glibc CMarkov: 372 states). Re-estimation stays sequential, so
// expect sub-linear but substantial speedup on multi-core hosts; results
// are bit-identical at every thread count.
BENCHMARK(BM_BaumWelchIterationThreads)
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({128, 8})
    ->Args({372, 1})
    ->Args({372, 2})
    ->Args({372, 4})
    ->Args({372, 8});

void BM_BaumWelchIterationMetrics(benchmark::State& state) {
  const auto model = model_with_states(static_cast<std::size_t>(state.range(0)));
  std::vector<hmm::ObservationSeq> data;
  for (int i = 0; i < 50; ++i) data.push_back(segment_for(model, 15));
  obs::MetricsRegistry registry;
  obs::RunProfile profile("bench");
  hmm::TrainingOptions options;
  options.max_iterations = 1;
  options.min_improvement = -1.0;
  options.exec.threads = static_cast<std::size_t>(state.range(1));
  options.exec.metrics = &registry;
  options.exec.profile = &profile;
  for (auto _ : state) {
    hmm::Trainer trainer(model, options);
    trainer.fit(data);
    benchmark::DoNotOptimize(trainer.model());
  }
  state.SetLabel("50 segments x 1 iteration, " +
                 std::to_string(state.range(1)) +
                 " threads, metrics+profile on");
}
// Same workload as BM_BaumWelchIterationThreads but with the observability
// sinks attached — the delta between the two is the instrumentation
// overhead (budget: within 3%; BENCH_obs.json records the measurement).
BENCHMARK(BM_BaumWelchIterationMetrics)
    ->Args({128, 1})
    ->Args({128, 4})
    ->Args({372, 1})
    ->Args({372, 4});

void BM_StaticPipeline(benchmark::State& state) {
  const workload::ProgramSuite suite = workload::make_bash_suite();
  core::PipelineConfig config;
  config.filter = analysis::CallFilter::kLibcalls;
  config.clustering.min_calls_for_reduction = 0;
  for (auto _ : state) {
    Rng rng(1);
    benchmark::DoNotOptimize(
        core::run_static_pipeline(suite.module(), config, rng));
  }
  state.SetLabel("bash libcall, clustered");
}
BENCHMARK(BM_StaticPipeline);

void BM_TraceCollection(benchmark::State& state) {
  const workload::ProgramSuite suite = workload::make_nginx_suite();
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::collect_traces(suite, 5, 3));
  }
  state.SetLabel("nginx, 5 test cases");
}
BENCHMARK(BM_TraceCollection);

}  // namespace

BENCHMARK_MAIN();

// Table V: runtime of CMarkov's static analysis operations per program and
// call stream — CFG construction, probability estimation (per-function
// call-transition matrices), aggregation, clustering and HMM
// initialization. The paper reports most operations finishing in seconds.
// A second section times Baum-Welch training sequential vs parallel per
// program; a third runs an interleaved A/B of full retraining vs
// hmm::Trainer::partial_fit absorbing ~10% new segments (bit-identical by
// the prefix-fold construction in trainer.hpp, so the speedup is free).
// Both write the machine-readable BENCH_train.json trail.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/eval/comparison.hpp"
#include "src/eval/model_zoo.hpp"
#include "src/hmm/random_init.hpp"
#include "src/hmm/trainer.hpp"
#include "src/trace/segmenter.hpp"
#include "src/util/parallel.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/strings.hpp"
#include "src/util/table_printer.hpp"
#include "src/workload/program_suite.hpp"
#include "src/workload/testcase_generator.hpp"

using namespace cmarkov;

namespace {

struct TrainTiming {
  std::string program;
  std::size_t states = 0;
  std::size_t segments = 0;
  std::size_t iterations = 0;
  double sequential_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
};

/// Trains `model` on `segments` once per thread setting and checks that the
/// parallel result is bit-identical to the sequential one.
TrainTiming time_training(const std::string& name, const hmm::Hmm& model,
                          const std::vector<hmm::ObservationSeq>& segments,
                          std::size_t max_iterations) {
  TrainTiming timing;
  timing.program = name;
  timing.states = model.num_states();
  timing.segments = segments.size();

  hmm::TrainingOptions options;
  options.max_iterations = max_iterations;
  options.min_improvement = -1.0;  // run all iterations for a stable timing

  options.exec.threads = 1;
  Stopwatch seq_watch;
  hmm::Trainer seq_trainer(model, options);
  const auto seq_report = seq_trainer.fit(segments);
  timing.sequential_ms = seq_watch.seconds() * 1e3;
  timing.iterations = seq_report.iterations;
  const hmm::Hmm sequential = seq_trainer.model();

  options.exec.threads = 0;  // one worker per hardware core
  Stopwatch par_watch;
  hmm::Trainer par_trainer(model, options);
  par_trainer.fit(segments);
  timing.parallel_ms = par_watch.seconds() * 1e3;
  const hmm::Hmm parallel = par_trainer.model();

  timing.identical = sequential.transition == parallel.transition &&
                     sequential.emission == parallel.emission &&
                     sequential.initial == parallel.initial;
  return timing;
}

struct SuiteCorpus {
  hmm::Hmm model;
  std::vector<hmm::ObservationSeq> segments;
};

/// Builds the per-program training corpus the same way the comparison
/// harness does: collected traces, CMarkov model, dedup'd 15-call segments.
SuiteCorpus build_suite_corpus(const std::string& name, bool full) {
  const workload::ProgramSuite suite = workload::make_suite(name);
  const auto collection =
      workload::collect_traces(suite, full ? 60 : 20, /*seed=*/1);

  eval::ModelBuildOptions build;
  build.exec.threads = 0;
  Rng rng(7);
  const eval::BuiltModel model = eval::build_model(
      eval::ModelKind::kCMarkov, suite, collection.traces, build, rng);

  trace::SegmentOptions seg_options;
  seg_options.length = 15;
  seg_options.keep_short_tail = false;
  trace::SegmentSet unique_segments(seg_options);
  for (const auto& trace : collection.traces) {
    unique_segments.add_trace(model.encode(trace));
  }
  std::vector<hmm::ObservationSeq> segments = unique_segments.to_vector();
  const std::size_t cap = full ? 800 : 200;
  if (segments.size() > cap) segments.resize(cap);
  return {model.hmm(), std::move(segments)};
}

TrainTiming time_suite_training(const std::string& name, bool full) {
  const SuiteCorpus corpus = build_suite_corpus(name, full);
  return time_training(name, corpus.model, corpus.segments, full ? 5 : 2);
}

struct IncrementalTiming {
  std::string program;
  std::size_t base_segments = 0;
  std::size_t new_segments = 0;
  std::size_t iterations = 0;
  double full_ms = 0.0;         // retrain on base + new from scratch
  double incremental_ms = 0.0;  // partial_fit absorbing only the new 10%
  bool identical = false;       // tentpole contract: must always be true
};

/// Interleaved A/B: per repeat, (A) a full `fit` on the combined corpus,
/// then (B) a copy of a trainer already fitted on the base corpus doing a
/// `partial_fit` of the new ~10%. Interleaving keeps cache/thermal drift
/// from biasing one arm. The two final models must be bit-identical — the
/// prefix-fold replay in Trainer makes the absorb path reuse the cached
/// iteration-0 E-step rather than changing any arithmetic.
IncrementalTiming time_incremental(const std::string& name,
                                   const SuiteCorpus& corpus,
                                   std::size_t max_iterations, int repeats) {
  IncrementalTiming t;
  t.program = name;
  const std::size_t total = corpus.segments.size();
  const std::size_t new_count = std::max<std::size_t>(1, total / 11);
  const std::size_t base_count = total - new_count;
  const std::vector<hmm::ObservationSeq> base(
      corpus.segments.begin(), corpus.segments.begin() + base_count);
  const std::vector<hmm::ObservationSeq> extra(
      corpus.segments.begin() + base_count, corpus.segments.end());
  t.base_segments = base_count;
  t.new_segments = new_count;

  hmm::TrainingOptions options;
  options.max_iterations = max_iterations;
  options.min_improvement = -1.0;
  options.exec.threads = 0;

  // The deployment-time state: a trainer that already absorbed the base
  // corpus (cmarkov train --save-state). Built once, outside the timers.
  hmm::Trainer primed(corpus.model, options);
  primed.fit(base);

  hmm::Hmm full_model;
  hmm::Hmm incremental_model;
  for (int r = 0; r < repeats; ++r) {
    {
      hmm::Trainer full(corpus.model, options);
      Stopwatch watch;
      const auto report = full.fit(corpus.segments);
      t.full_ms += watch.seconds() * 1e3 / repeats;
      t.iterations = report.iterations;
      full_model = full.model();
    }
    {
      hmm::Trainer inc = primed;
      Stopwatch watch;
      inc.partial_fit(extra);
      t.incremental_ms += watch.seconds() * 1e3 / repeats;
      incremental_model = inc.model();
    }
  }
  t.identical = full_model.transition == incremental_model.transition &&
                full_model.emission == incremental_model.emission &&
                full_model.initial == incremental_model.initial;
  return t;
}

/// Synthetic >=128-state entry (the acceptance benchmark for the parallel
/// E-step): a randomly initialized dense model over random 15-call
/// segments.
TrainTiming time_synthetic_training(std::size_t states, bool full) {
  Rng rng(states * 17 + 1);
  const hmm::Hmm model =
      hmm::randomly_initialized_hmm(states, states, rng);
  std::vector<hmm::ObservationSeq> segments;
  const std::size_t count = full ? 400 : 150;
  for (std::size_t i = 0; i < count; ++i) {
    hmm::ObservationSeq seq(15);
    for (auto& s : seq) s = rng.index(model.num_symbols());
    segments.push_back(std::move(seq));
  }
  return time_training("synthetic-" + std::to_string(states), model,
                       segments, full ? 4 : 2);
}

void write_bench_train_json(const std::vector<TrainTiming>& timings,
                            const std::vector<IncrementalTiming>& absorbs,
                            std::size_t threads) {
  std::ofstream out("BENCH_train.json");
  out << "{\n  \"benchmark\": \"baum_welch_training\",\n"
      << "  \"parallel_threads\": " << threads << ",\n"
      << "  \"programs\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const TrainTiming& t = timings[i];
    out << "    {\"program\": \"" << t.program << "\", \"states\": "
        << t.states << ", \"segments\": " << t.segments
        << ", \"iterations\": " << t.iterations
        << ", \"sequential_ms\": " << format_double(t.sequential_ms, 3)
        << ", \"parallel_ms\": " << format_double(t.parallel_ms, 3)
        << ", \"speedup\": "
        << format_double(t.parallel_ms > 0.0
                             ? t.sequential_ms / t.parallel_ms
                             : 0.0,
                         3)
        << ", \"bit_identical\": " << (t.identical ? "true" : "false")
        << "}" << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"incremental\": [\n";
  for (std::size_t i = 0; i < absorbs.size(); ++i) {
    const IncrementalTiming& t = absorbs[i];
    out << "    {\"program\": \"" << t.program
        << "\", \"base_segments\": " << t.base_segments
        << ", \"new_segments\": " << t.new_segments
        << ", \"iterations\": " << t.iterations
        << ", \"full_retrain_ms\": " << format_double(t.full_ms, 3)
        << ", \"partial_fit_ms\": " << format_double(t.incremental_ms, 3)
        << ", \"speedup\": "
        << format_double(
               t.incremental_ms > 0.0 ? t.full_ms / t.incremental_ms : 0.0,
               3)
        << ", \"bit_identical\": " << (t.identical ? "true" : "false")
        << "}" << (i + 1 < absorbs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = eval::full_mode_enabled(argc, argv);
  const int repeats = full ? 20 : 5;
  std::cout << "=== Table V: static-analysis runtime per program (mean of "
            << repeats << " runs, milliseconds) ===\n\n";

  for (const auto filter :
       {analysis::CallFilter::kLibcalls, analysis::CallFilter::kSyscalls}) {
    std::cout << "--- " << analysis::call_filter_name(filter)
              << " models ---\n";
    TablePrinter table({"Program", "CFG construction", "Probability",
                        "Aggregation", "Clustering", "HMM init", "Total"});
    for (const auto& name : workload::all_suite_names()) {
      const workload::ProgramSuite suite = workload::make_suite(name);
      PhaseTimer accumulated;
      for (int r = 0; r < repeats; ++r) {
        core::PipelineConfig config;
        config.filter = filter;
        config.clustering.min_calls_for_reduction = 0;  // exercise clustering
        Rng rng(static_cast<std::uint64_t>(r));
        const auto result =
            core::run_static_pipeline(suite.module(), config, rng);
        for (const auto& [phase, seconds] : result.timings.totals()) {
          accumulated.add(phase, seconds);
        }
      }
      auto mean_ms = [&](const char* phase) {
        return accumulated.total(phase) / repeats * 1e3;
      };
      const double total = mean_ms("cfg") + mean_ms("probability") +
                           mean_ms("aggregation") + mean_ms("clustering") +
                           mean_ms("initialization");
      table.add_row({name, format_double(mean_ms("cfg"), 3),
                     format_double(mean_ms("probability"), 3),
                     format_double(mean_ms("aggregation"), 3),
                     format_double(mean_ms("clustering"), 3),
                     format_double(mean_ms("initialization"), 3),
                     format_double(total, 3)});
    }
    table.print();
    std::cout << "\n";
  }
  std::cout << "Shape check: every operation completes in milliseconds on\n"
               "the synthetic programs (the paper reports seconds on real\n"
               "binaries); aggregation and probability estimation dominate.\n";

  const std::size_t threads = resolve_num_threads(0);
  std::cout << "\n=== Baum-Welch training runtime: sequential vs parallel ("
            << threads << " hardware threads) ===\n\n";
  std::vector<TrainTiming> timings;
  for (const auto& name : workload::all_suite_names()) {
    timings.push_back(time_suite_training(name, full));
  }
  timings.push_back(time_synthetic_training(128, full));
  if (full) timings.push_back(time_synthetic_training(372, full));

  TablePrinter train_table({"Program", "States", "Segments", "Iters",
                            "Sequential (ms)", "Parallel (ms)", "Speedup",
                            "Bit-identical"});
  for (const auto& t : timings) {
    train_table.add_row(
        {t.program, std::to_string(t.states), std::to_string(t.segments),
         std::to_string(t.iterations), format_double(t.sequential_ms, 2),
         format_double(t.parallel_ms, 2),
         format_double(
             t.parallel_ms > 0.0 ? t.sequential_ms / t.parallel_ms : 0.0, 2),
         t.identical ? "yes" : "NO"});
  }
  train_table.print();

  std::cout << "\n=== Incremental absorb: full retrain vs partial_fit of "
               "~10% new segments (interleaved A/B) ===\n\n";
  const int ab_repeats = full ? 5 : 3;
  std::vector<IncrementalTiming> absorbs;
  for (const auto& name : workload::all_suite_names()) {
    const SuiteCorpus corpus = build_suite_corpus(name, full);
    absorbs.push_back(
        time_incremental(name, corpus, full ? 5 : 2, ab_repeats));
  }
  TablePrinter absorb_table({"Program", "Base", "New", "Iters",
                             "Full retrain (ms)", "partial_fit (ms)",
                             "Speedup", "Bit-identical"});
  for (const auto& t : absorbs) {
    absorb_table.add_row(
        {t.program, std::to_string(t.base_segments),
         std::to_string(t.new_segments), std::to_string(t.iterations),
         format_double(t.full_ms, 2), format_double(t.incremental_ms, 2),
         format_double(
             t.incremental_ms > 0.0 ? t.full_ms / t.incremental_ms : 0.0, 2),
         t.identical ? "yes" : "NO"});
  }
  absorb_table.print();
  write_bench_train_json(timings, absorbs, threads);
  std::cout << "\nWrote BENCH_train.json. Parallel training uses one worker\n"
               "per hardware core and is bit-identical to the sequential\n"
               "path by construction (fixed merge-slot reduction); the\n"
               "partial_fit arm reuses the cached iteration-0 E-step over\n"
               "the base corpus, so absorbing K% new data costs roughly\n"
               "(iters-1+K)/iters of a full retrain, bit-identically.\n";
  return 0;
}

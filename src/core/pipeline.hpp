// End-to-end static model construction with per-phase timing: CFG
// construction, probability forecast, call-transition aggregation,
// clustering and HMM initialization. This is the CMarkov workflow of
// Section III-A as one call, and the instrumented path behind Table V.
#pragma once

#include "src/analysis/aggregation.hpp"
#include "src/hmm/static_init.hpp"
#include "src/ir/module.hpp"
#include "src/reduction/cluster_calls.hpp"
#include "src/util/exec_context.hpp"
#include "src/util/rng.hpp"
#include "src/util/stopwatch.hpp"

namespace cmarkov::core {

struct PipelineConfig {
  analysis::CallFilter filter = analysis::CallFilter::kLibcalls;
  /// false builds the STILO (context-insensitive) variant.
  bool context_sensitive = true;
  /// Execution context: exec.threads drives the clustering phase (PCA +
  /// k-means; 0 = one per hardware core) and is authoritative over
  /// clustering.exec; exec.profile receives the analyze → reduce → init
  /// span tree; exec.metrics the cmarkov_pipeline_* instruments. All
  /// pipeline results are identical at any thread count.
  ExecContext exec;
  analysis::FunctionMatrixOptions matrix;
  reduction::ClusteringOptions clustering;
};

struct StaticPipelineResult {
  cfg::ModuleCfg module_cfg;
  cfg::CallGraph call_graph;
  analysis::CallTransitionMatrix program_matrix;
  reduction::CallClustering clustering;
  reduction::ReducedModel reduced;
  hmm::Alphabet alphabet;
  hmm::StaticInitResult init;
  /// Phases: "cfg", "probability", "aggregation", "clustering",
  /// "initialization".
  PhaseTimer timings;
  /// Distinct context-sensitive (or -free, for STILO) calls before
  /// reduction.
  std::size_t distinct_calls = 0;

  hmm::ObservationEncoding encoding() const {
    return init_encoding;
  }
  hmm::ObservationEncoding init_encoding =
      hmm::ObservationEncoding::kContextSensitive;
};

/// Runs CONTEXT IDENTIFICATION + PROBABILITY FORECAST + STATE REDUCTION AND
/// INITIALIZATION (Section III-A operations 1-3). Training (operation 4) is
/// the caller's job — see core::Detector.
StaticPipelineResult run_static_pipeline(const ir::ProgramModule& program,
                                         const PipelineConfig& config,
                                         Rng& rng);

}  // namespace cmarkov::core

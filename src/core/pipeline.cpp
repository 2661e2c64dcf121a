#include "src/core/pipeline.hpp"

#include "src/cfg/cfg_builder.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/obs/run_profile.hpp"

namespace cmarkov::core {

StaticPipelineResult run_static_pipeline(const ir::ProgramModule& program,
                                         const PipelineConfig& config,
                                         Rng& rng) {
  StaticPipelineResult result;
  result.init_encoding = config.context_sensitive
                             ? hmm::ObservationEncoding::kContextSensitive
                             : hmm::ObservationEncoding::kContextFree;

  obs::RunProfile* profile = config.exec.profile;

  {
    const obs::ScopedTimer analyze_span(profile, "analyze");
    {
      ScopedPhase phase(result.timings, "cfg");
      const obs::ScopedTimer span(profile, "cfg");
      result.module_cfg = cfg::build_module_cfg(program);
      result.call_graph = cfg::CallGraph::build(result.module_cfg);
    }

    analysis::FunctionMatrixOptions matrix_options = config.matrix;
    matrix_options.filter = config.filter;
    const auto heuristic = analysis::make_branch_heuristic(
        matrix_options.heuristic, matrix_options.loop_probability);
    analysis::AggregatedProgram aggregated;
    {
      const obs::ScopedTimer span(profile, "aggregate");
      aggregated = analysis::aggregate_program(result.module_cfg,
                                               result.call_graph, *heuristic,
                                               matrix_options,
                                               &result.timings);
    }

    result.program_matrix =
        config.context_sensitive
            ? std::move(aggregated.program_matrix)
            : analysis::project_context_insensitive(
                  aggregated.program_matrix);
    result.distinct_calls = result.program_matrix.external_indices().size();
  }

  {
    ScopedPhase phase(result.timings, "clustering");
    const obs::ScopedTimer span(profile, "reduce");
    reduction::ClusteringOptions clustering_options = config.clustering;
    clustering_options.exec = config.exec;
    result.clustering =
        reduction::cluster_calls(result.program_matrix, rng,
                                 clustering_options);
    result.reduced = reduction::reconstruct_reduced_model(
        result.program_matrix, result.clustering);
  }

  {
    ScopedPhase phase(result.timings, "initialization");
    const obs::ScopedTimer span(profile, "init");
    result.init = hmm::statically_initialized_hmm(
        result.reduced, result.init_encoding, result.alphabet);
  }

  if (config.exec.metrics != nullptr) {
    auto& m = *config.exec.metrics;
    m.counter("cmarkov_pipeline_runs_total").add(1);
    m.gauge("cmarkov_pipeline_distinct_calls")
        .set(static_cast<double>(result.distinct_calls));
    m.gauge("cmarkov_pipeline_states")
        .set(static_cast<double>(result.init.model.num_states()));
  }
  return result;
}

}  // namespace cmarkov::core

#include "src/eval/model_zoo.hpp"

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/hmm/forward_backward.hpp"

namespace cmarkov::eval {

std::string model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kCMarkov:
      return "CMarkov";
    case ModelKind::kStilo:
      return "STILO";
    case ModelKind::kRegularContext:
      return "Regular-context";
    case ModelKind::kRegularBasic:
      return "Regular-basic";
    case ModelKind::kRegularSite:
      return "Regular-site";
    case ModelKind::kRegularDeep:
      return "Regular-deep";
  }
  return "?";
}

hmm::ObservationEncoding encoding_of(ModelKind kind) {
  switch (kind) {
    case ModelKind::kCMarkov:
    case ModelKind::kRegularContext:
      return hmm::ObservationEncoding::kContextSensitive;
    case ModelKind::kStilo:
    case ModelKind::kRegularBasic:
      return hmm::ObservationEncoding::kContextFree;
    case ModelKind::kRegularSite:
      return hmm::ObservationEncoding::kSiteSensitive;
    case ModelKind::kRegularDeep:
      return hmm::ObservationEncoding::kDeepContext;
  }
  return hmm::ObservationEncoding::kContextFree;
}

bool is_statically_initialized(ModelKind kind) {
  return kind == ModelKind::kCMarkov || kind == ModelKind::kStilo;
}

const std::vector<ModelKind>& all_model_kinds() {
  static const std::vector<ModelKind> kinds = {
      ModelKind::kCMarkov, ModelKind::kStilo, ModelKind::kRegularContext,
      ModelKind::kRegularBasic};
  return kinds;
}

const std::vector<ModelKind>& extended_model_kinds() {
  static const std::vector<ModelKind> kinds = {
      ModelKind::kCMarkov,      ModelKind::kStilo,
      ModelKind::kRegularContext, ModelKind::kRegularBasic,
      ModelKind::kRegularSite,  ModelKind::kRegularDeep};
  return kinds;
}

hmm::ObservationSeq BuiltModel::encode(const trace::Trace& trace) const {
  return trace::encode_trace_frozen(trace, filter, encoding, alphabet,
                                    alphabet.size());
}

hmm::ObservationSeq BuiltModel::encode(
    const attack::EventSegment& segment) const {
  trace::Trace wrapper;
  wrapper.events = segment;
  return encode(wrapper);
}

double BuiltModel::score(const hmm::ObservationSeq& segment) const {
  for (std::size_t id : segment) {
    if (id >= hmm_.num_symbols()) {
      // Unknown observation (out-of-alphabet call or out-of-context pair):
      // the model assigns it probability zero.
      return -std::numeric_limits<double>::infinity();
    }
  }
  std::vector<double> rows(2 * hmm_.num_states());
  return hmm::forward_pass(hmm::forward_tables(hmm_, emission_t_), segment,
                           {.alpha = rows.data()});
}

void BuiltModel::set_hmm(hmm::Hmm model) {
  hmm_ = std::move(model);
  emission_t_ = hmm_.emission.transposed();
}

namespace {

/// Interns every observation appearing in the traces under the model's
/// encoding, so the emission matrix covers the dynamic vocabulary.
void intern_trace_symbols(const std::vector<trace::Trace>& traces,
                          analysis::CallFilter filter,
                          hmm::ObservationEncoding encoding,
                          hmm::Alphabet& alphabet) {
  for (const auto& trace : traces) {
    trace::encode_trace(trace, filter, encoding, alphabet);
  }
}

BuiltModel build_static_model(ModelKind kind,
                              const workload::ProgramSuite& suite,
                              const std::vector<trace::Trace>& traces,
                              const ModelBuildOptions& options, Rng& rng) {
  BuiltModel model;
  model.kind = kind;
  model.filter = options.filter;
  model.encoding = encoding_of(kind);

  analysis::FunctionMatrixOptions matrix_options = options.matrix;
  matrix_options.filter = options.filter;

  const auto heuristic = analysis::make_branch_heuristic(
      matrix_options.heuristic, matrix_options.loop_probability);
  analysis::AggregatedProgram aggregated = analysis::aggregate_program(
      suite.cfg(), suite.call_graph(), *heuristic, matrix_options);

  analysis::CallTransitionMatrix program_matrix =
      kind == ModelKind::kStilo
          ? analysis::project_context_insensitive(aggregated.program_matrix)
          : std::move(aggregated.program_matrix);

  model.static_calls = program_matrix.external_indices().size();

  reduction::ClusteringOptions clustering_options = options.clustering;
  clustering_options.exec.adopt_runtime(options.exec);
  reduction::CallClustering clustering =
      kind == ModelKind::kCMarkov
          ? reduction::cluster_calls(program_matrix, rng, clustering_options)
          : reduction::identity_clustering(program_matrix);

  const reduction::ReducedModel reduced =
      reduction::reconstruct_reduced_model(program_matrix, clustering);

  intern_trace_symbols(traces, options.filter, model.encoding,
                       model.alphabet);
  hmm::StaticInitResult init = hmm::statically_initialized_hmm(
      reduced, model.encoding, model.alphabet, options.static_init);
  model.set_hmm(std::move(init.model));
  model.state_labels = std::move(init.state_labels);
  model.num_states = model.hmm().num_states();
  return model;
}

BuiltModel build_regular_model(ModelKind kind,
                               const std::vector<trace::Trace>& traces,
                               const ModelBuildOptions& options, Rng& rng) {
  BuiltModel model;
  model.kind = kind;
  model.filter = options.filter;
  model.encoding = encoding_of(kind);

  intern_trace_symbols(traces, options.filter, model.encoding,
                       model.alphabet);
  if (model.alphabet.size() == 0) {
    throw std::invalid_argument(
        "build_model: traces contain no observable calls under this filter");
  }
  // The regular HMM's hidden-state count is the size of the observed call
  // set (Section V-A).
  model.num_states = model.alphabet.size();
  model.set_hmm(hmm::randomly_initialized_hmm(
      model.num_states, model.alphabet.size(), rng, options.random_init));
  return model;
}

}  // namespace

BuiltModel build_model(ModelKind kind, const workload::ProgramSuite& suite,
                       const std::vector<trace::Trace>& training_traces,
                       const ModelBuildOptions& options, Rng& rng) {
  if (is_statically_initialized(kind)) {
    return build_static_model(kind, suite, training_traces, options, rng);
  }
  return build_regular_model(kind, training_traces, options, rng);
}

}  // namespace cmarkov::eval

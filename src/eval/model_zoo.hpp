// The four compared detection models (Section V-A):
//   CMarkov         — static init, context-sensitive observations,
//                     clustering-based state reduction;
//   STILO           — static init, context-free observations;
//   Regular-context — random init, context-sensitive observations;
//   Regular-basic   — random init, context-free observations (the classic
//                     Warrender-style HMM detector).
#pragma once

#include <string>
#include <vector>

#include "src/analysis/aggregation.hpp"
#include "src/attack/abnormal_s.hpp"
#include "src/hmm/alphabet.hpp"
#include "src/hmm/hmm.hpp"
#include "src/reduction/cluster_calls.hpp"
#include "src/trace/event.hpp"
#include "src/util/exec_context.hpp"
#include "src/workload/program_suite.hpp"

namespace cmarkov::eval {

/// kRegularSite and kRegularDeep are extensions beyond the paper's four
/// models: random init with site-granular (program-counter) respectively
/// 2-level stack-context observations, testing the paper's claim that
/// context finer than the immediate caller adds no detection capability
/// while inflating the model.
enum class ModelKind {
  kCMarkov,
  kStilo,
  kRegularContext,
  kRegularBasic,
  kRegularSite,
  kRegularDeep,
};

std::string model_kind_name(ModelKind kind);

/// Context-sensitive kinds observe name@caller; kRegularSite observes
/// name@caller+site.
hmm::ObservationEncoding encoding_of(ModelKind kind);

/// Static kinds are initialized from program analysis.
bool is_statically_initialized(ModelKind kind);

/// The paper's four compared models (Figures 2-5).
const std::vector<ModelKind>& all_model_kinds();

/// The four paper models plus the site-sensitive extension.
const std::vector<ModelKind>& extended_model_kinds();

struct ModelBuildOptions {
  analysis::CallFilter filter = analysis::CallFilter::kLibcalls;
  /// Execution context: exec.threads drives the clustering phase (0 = one
  /// per hardware core) and is authoritative over clustering.exec. Built
  /// models are identical at any value.
  ExecContext exec;
  /// Static-analysis controls (propagation mode, etc.).
  analysis::FunctionMatrixOptions matrix;
  /// Clustering controls for CMarkov (min_calls_for_reduction gates it).
  reduction::ClusteringOptions clustering;
};

/// A built (untrained) model plus everything needed to encode traces.
struct BuiltModel {
  ModelKind kind = ModelKind::kCMarkov;
  analysis::CallFilter filter = analysis::CallFilter::kLibcalls;
  hmm::ObservationEncoding encoding =
      hmm::ObservationEncoding::kContextSensitive;
  hmm::Alphabet alphabet;
  /// Distinct static calls before clustering (Table II column).
  std::size_t static_calls = 0;
  /// Hidden-state count of the model.
  std::size_t num_states = 0;
  /// Hidden-state diagnostics (static kinds only).
  std::vector<std::string> state_labels;

  /// Encodes a symbolized trace without extending the alphabet; unknown
  /// observations map to an id the model cannot emit.
  hmm::ObservationSeq encode(const trace::Trace& trace) const;

  /// Encodes an event segment the same way.
  hmm::ObservationSeq encode(const attack::EventSegment& segment) const;

  /// log P(segment | model); -infinity when any observation is unknown.
  /// hmm::forward_pass on two ping-pong rows over the cached B^T:
  /// bit-identical to hmm::forward_scaled.
  double score(const hmm::ObservationSeq& segment) const;

  const hmm::Hmm& hmm() const { return hmm_; }
  /// Replaces the model (e.g. with a trained one) and rebuilds the B^T
  /// that score() reads.
  void set_hmm(hmm::Hmm model);

 private:
  hmm::Hmm hmm_;
  Matrix emission_t_;
};

/// Builds one untrained model. Static kinds run the full analysis pipeline
/// on the suite; regular kinds size themselves from the training traces
/// (their alphabet and state count are the distinct observed calls, per the
/// paper). The alphabet always covers the union of trace and static
/// symbols.
BuiltModel build_model(ModelKind kind, const workload::ProgramSuite& suite,
                       const std::vector<trace::Trace>& training_traces,
                       const ModelBuildOptions& options, Rng& rng);

}  // namespace cmarkov::eval

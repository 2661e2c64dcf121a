// Baum-Welch training options/report types and the mean log-likelihood
// scorer. The training engine itself lives in hmm::Trainer
// (src/hmm/trainer.hpp); tools/check_trainer_api.sh keeps the old free
// training entry point from coming back.
//
// Convergence follows the paper's protocol: 20% of the normal data is held
// out as a termination set; after each iteration the model is evaluated on
// it and training stops when the average held-out log-likelihood no longer
// improves significantly. Accumulators carry a small pseudocount so that
// training never zeroes an entire row.
//
// The E-step is parallel over sequences (TrainingOptions::exec.threads):
// per-sequence forward/backward passes are independent given fixed
// parameters and the expected-count accumulators are additive. Sequences
// are distributed round-robin over a fixed number of merge slots (16,
// independent of the thread count), each slot is accumulated by exactly one
// worker in ascending sequence order, and slots are merged in slot-index
// order on the calling thread — so the trained model and the TrainingReport
// are bit-identical for every thread count, including the sequential path.
// docs/ALGORITHMS.md §7 has the full argument.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/hmm/forward_backward.hpp"
#include "src/hmm/hmm.hpp"
#include "src/util/exec_context.hpp"

namespace cmarkov {
class WorkerPool;
}  // namespace cmarkov

namespace cmarkov::hmm {

struct TrainingOptions {
  std::size_t max_iterations = 30;
  /// Minimum improvement of mean held-out log-likelihood per iteration for
  /// training to continue.
  double min_improvement = 1e-3;
  /// Dirichlet-style pseudocount added to every accumulator cell.
  double pseudocount = 1e-6;
  /// Consecutive non-improving iterations tolerated before stopping.
  std::size_t patience = 1;
  /// Execution context: exec.threads drives the E-step and holdout scoring
  /// fan-out; exec.metrics/exec.profile receive per-iteration E/M timings,
  /// LL deltas, and pool utilization when set.
  ExecContext exec;
  /// Log-likelihood stand-in for sequences the current model rejects
  /// (impossible or empty), keeping reported means finite.
  double impossible_penalty = -1e4;
};

struct TrainingReport {
  std::size_t iterations = 0;
  bool converged = false;
  /// Mean train log-likelihood of the model *entering* each iteration,
  /// reused from the E-step forward passes (no separate scoring sweep);
  /// entry 0 is the initial model's mean train log-likelihood.
  std::vector<double> train_log_likelihood;
  /// Mean held-out log-likelihood after each iteration (empty if no
  /// held-out data was supplied).
  std::vector<double> holdout_log_likelihood;
  /// Sequences skipped because the current model scored them impossible
  /// (or they were empty).
  std::size_t skipped_sequences = 0;
};

/// The pooled sequence scorer behind the Trainer's holdout scoring:
/// continues the left fold `sum` with each sequence's forward_pass
/// log-likelihood, in sequence order, counting impossible and empty
/// sequences as `impossible_penalty`. Scoring fans out over `pool`
/// on ping-pong alpha rows (no alpha matrix); the fold runs on the calling
/// thread, so the result is identical at any thread count. Observation ids
/// are not range-checked.
double pooled_log_likelihood_sum(const ForwardTables& tables,
                                 std::span<const ObservationSeq> sequences,
                                 double impossible_penalty, WorkerPool& pool,
                                 double sum = 0.0);

}  // namespace cmarkov::hmm

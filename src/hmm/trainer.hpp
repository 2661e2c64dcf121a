// Stateful Baum-Welch training engine: batch `fit`, incremental
// `partial_fit`, and a serializable TrainerState so training can resume
// across process restarts (ROADMAP item 3).
//
// The bit-identity contract (asserted by incremental_training_test):
//   fit(A ++ B)  ==  fit(A); partial_fit(B)      (exact double equality,
//                                                 at every thread count)
//
// How: every run replays the full EM trajectory from the immutable initial
// model θ₀ — iterations past the first depend on the whole corpus through
// the re-estimated parameters, so none of their work is reusable — but the
// iteration-0 E-step (the only one evaluated under θ₀, which never
// changes) is cached as the *in-place fold state* of the 16 fixed merge
// slots (PR 2). Floating-point addition is non-associative, so per-batch
// delta accumulators could not be recombined exactly; continuing the left
// fold cell-by-cell from the cached prefix is the one representation that
// reproduces a batch run's sums bit-for-bit. partial_fit therefore folds
// only the new sequences into iteration 0 and pays full price for the
// remaining iterations: the honest speedup is one E-step over the old data
// out of K, reported as such by bench_table5 (BENCH_train.json).
// docs/ALGORITHMS.md §8 has the full argument.
#pragma once

#include <cstddef>
#include <vector>

#include "src/hmm/baum_welch.hpp"
#include "src/hmm/hmm.hpp"

namespace cmarkov::hmm {

/// Merge slots of the parallel E-step. Fixed — never derived from the
/// thread count *or the corpus size* — so that sequence s lands in slot
/// s % 16 forever as the corpus grows, which is what lets a cached slot
/// fold be continued by partial_fit. (The legacy free function clamped the
/// slot count to the corpus size; for fewer than 16 sequences both
/// policies place sequence s alone in slot s and merge identically, so the
/// trained bits are unchanged.)
inline constexpr std::size_t kTrainerMergeSlots = 16;

/// Additive expected-count accumulators of one E-step merge slot
/// (the gamma/xi sufficient statistics of the sequences folded into it).
struct SuffStats {
  Matrix transition_num;               // N x N  (xi sums)
  std::vector<double> transition_den;  // N      (gamma sums, t < T-1)
  Matrix emission_num;                 // N x M  (gamma sums per symbol)
  std::vector<double> emission_den;    // N      (gamma sums, all t)
  std::vector<double> initial;         // N      (gamma at t = 0)

  SuffStats() = default;
  SuffStats(std::size_t n, std::size_t m)
      : transition_num(n, n),
        transition_den(n, 0.0),
        emission_num(n, m),
        emission_den(n, 0.0),
        initial(n, 0.0) {}

  void reset();
  void merge(const SuffStats& other);
};

/// Scalar summary of one absorbed trace batch, keyed by `id` (0 is the
/// fit() corpus, each partial_fit appends the next id). The gamma/xi
/// sufficient statistics of all batches live in TrainerState::slot_prefix
/// as one canonical fold in batch order — see the file comment for why the
/// per-batch deltas cannot be stored separately without losing exactness.
struct BatchRecord {
  std::size_t id = 0;
  std::size_t train_count = 0;
  std::size_t holdout_count = 0;
  /// EM iterations of the run that absorbed this batch.
  std::size_t iterations = 0;
  /// Mean train log-likelihood of θ₀ entering that run, and of the model
  /// entering its final iteration (the run's LL delta is the difference).
  double entry_train_ll = 0.0;
  double final_train_ll = 0.0;
};

/// Complete resumable training state (serialized by core::model_io as
/// `cmarkov-trainer-state 1`; doubles travel as hex bit patterns so a
/// save/load round trip is exact).
struct TrainerState {
  /// θ₀ — every fit/partial_fit replays EM from here. Immutable.
  Hmm initial_model;

  // The numeric knobs that shape the EM trajectory. A resumed Trainer
  // adopts these (not the caller's) so the replay stays exact; the
  // ExecContext is deliberately excluded — threads and sinks never change
  // results (PR 2 guarantee).
  std::size_t max_iterations = 30;
  double min_improvement = 1e-3;
  double pseudocount = 1e-6;
  std::size_t patience = 1;
  double impossible_penalty = -1e4;

  /// Absorbed corpus, in absorption order (batch 0 first).
  std::vector<ObservationSeq> train;
  std::vector<ObservationSeq> holdout;
  std::vector<BatchRecord> batches;

  // ---- iteration-0 prefix cache under θ₀ ----
  /// Sequences of `train` folded into `slot_prefix` (always a prefix).
  std::size_t cached_count = 0;
  /// The 16 merge-slot accumulators after folding train[0..cached_count):
  /// sequence s in slot s % 16, ascending-s in-place fold — exactly the
  /// state a batch run's iteration 0 reaches. Empty until the first run.
  std::vector<SuffStats> slot_prefix;
  /// Left fold (in s order) of the iteration-0 per-sequence
  /// log-likelihoods over train[0..cached_count), impossible/empty
  /// sequences contributing `impossible_penalty`.
  double ll_sum_prefix = 0.0;
  /// Sequences of the cached prefix that θ₀ accepts (not impossible).
  std::size_t observed_prefix = 0;
  /// Holdout baseline cache: left fold of θ₀ log-likelihoods over
  /// holdout[0..holdout_cached).
  std::size_t holdout_cached = 0;
  double holdout_ll_sum = 0.0;

  /// Structural sanity (shapes, prefix bounds, symbol range). Throws
  /// std::invalid_argument; used by the resume constructor and model_io.
  void validate() const;
};

/// Stateful training engine — the only Baum-Welch entry point (the old
/// free training function is gone; tools/check_trainer_api.sh keeps it
/// from coming back).
class Trainer {
 public:
  /// Fresh trainer starting from `initial_model` (θ₀). The options'
  /// numeric knobs are captured into the state; exec drives threading and
  /// observability sinks.
  explicit Trainer(Hmm initial_model, TrainingOptions options = {});

  /// Resumes from a (de)serialized state: the state's numeric knobs win,
  /// `options.exec` supplies the runtime (threads, metrics, profile). The
  /// model is not rematerialized until the next fit/partial_fit.
  explicit Trainer(TrainerState state, TrainingOptions options = {});

  /// Batch training: replaces any absorbed corpus with exactly this data
  /// and trains θ₀ on it. Mirrors the legacy free function bit-for-bit.
  TrainingReport fit(std::vector<ObservationSeq> corpus,
                     std::vector<ObservationSeq> holdout = {});

  /// Incremental training: appends the new sequences to the absorbed
  /// corpus and re-derives the model, bit-identical to fit() on the
  /// concatenated corpus at every thread count. New symbols must already
  /// be within θ₀'s emission width (throws std::invalid_argument
  /// otherwise — vocabulary growth requires a batch fit).
  TrainingReport partial_fit(
      const std::vector<ObservationSeq>& new_traces,
      const std::vector<ObservationSeq>& new_holdout = {});

  /// True once a fit/partial_fit has run (or a resumed state had one).
  bool has_model() const { return has_model_; }
  /// The trained model of the last run. Throws std::logic_error before
  /// the first fit/partial_fit.
  const Hmm& model() const;
  const Hmm& initial_model() const { return state_.initial_model; }
  const TrainerState& state() const { return state_; }
  const TrainingOptions& options() const { return options_; }

  /// One report per fit/partial_fit call on this object, oldest first
  /// (per-run iteration counts and LL trajectories — the TrainingReport
  /// ergonomics satellite; scalar per-batch summaries persist in
  /// state().batches across restarts).
  const std::vector<TrainingReport>& history() const { return history_; }
  const TrainingReport& last_report() const;

 private:
  /// Replays EM from θ₀ over the absorbed corpus. Iteration 0 continues
  /// the cached slot fold over train[0..cached_count) and snapshots the
  /// extended fold back into the state; later iterations run in full.
  TrainingReport run_em();

  void record_run_metrics(const TrainingReport& report,
                          std::size_t new_sequences) const;

  TrainerState state_;
  TrainingOptions options_;
  Hmm model_;
  bool has_model_ = false;
  std::vector<TrainingReport> history_;
};

}  // namespace cmarkov::hmm

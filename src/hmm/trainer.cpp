#include "src/hmm/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/hmm/forward_backward.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/obs/run_profile.hpp"
#include "src/util/logging.hpp"
#include "src/util/parallel.hpp"
#include "src/util/stopwatch.hpp"

namespace cmarkov::hmm {

namespace {

/// Per-slot E-step buffers, reused across the slot's sequences.
struct PassBuffers {
  std::vector<double> alpha;   ///< T x N kept forward rows
  std::vector<double> scales;  ///< T forward scales
  std::vector<double> beta;    ///< T x N backward rows
};

/// Accumulates expected counts for one sequence; returns false if the
/// sequence is empty or impossible under the current model. On success,
/// `log_likelihood` receives the forward log-likelihood computed along the
/// way.
bool accumulate_sequence(const ForwardTables& tables,
                         const ObservationSeq& seq, SuffStats& acc,
                         PassBuffers& buffers, double& log_likelihood) {
  if (seq.empty()) return false;
  const std::size_t n = tables.num_states;
  const std::size_t t_len = seq.size();
  buffers.alpha.resize(t_len * n);
  buffers.scales.resize(t_len);
  buffers.beta.resize(t_len * n);
  const double ll = forward_pass(tables, seq,
                                 {.alpha = buffers.alpha.data(),
                                  .keep_rows = true,
                                  .scales = buffers.scales.data()});
  if (std::isinf(ll)) return false;
  log_likelihood = ll;
  backward_pass(tables, seq, buffers.scales, buffers.beta.data());
  const double* alpha = buffers.alpha.data();
  const double* beta = buffers.beta.data();
  const double* scales = buffers.scales.data();

  // gamma(t, i) = alpha(t, i) * beta(t, i) * c_t (scaled quantities).
  auto gamma = [&](std::size_t t, std::size_t i) {
    return alpha[t * n + i] * beta[t * n + i] * scales[t];
  };

  for (std::size_t i = 0; i < n; ++i) acc.initial[i] += gamma(0, i);

  accumulate_expected_transitions(tables, seq, alpha, beta,
                                  acc.transition_num.data());
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      const double g = gamma(t, i);
      acc.emission_num(i, seq[t]) += g;
      acc.emission_den[i] += g;
      if (t + 1 < t_len) acc.transition_den[i] += g;
    }
  }
  return true;
}

void reestimate(Hmm& model, const SuffStats& acc, double pseudocount,
                std::size_t observed_sequences) {
  const std::size_t n = model.num_states();
  const std::size_t m = model.num_symbols();

  for (std::size_t i = 0; i < n; ++i) {
    const double den =
        acc.transition_den[i] + pseudocount * static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j) {
      model.transition(i, j) = (acc.transition_num(i, j) + pseudocount) / den;
    }
    const double eden =
        acc.emission_den[i] + pseudocount * static_cast<double>(m);
    for (std::size_t k = 0; k < m; ++k) {
      model.emission(i, k) = (acc.emission_num(i, k) + pseudocount) / eden;
    }
  }
  const double iden = static_cast<double>(observed_sequences) +
                      pseudocount * static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    model.initial[i] = (acc.initial[i] + pseudocount) / iden;
  }
}

void check_symbol_range(const std::vector<ObservationSeq>& sequences,
                        std::size_t num_symbols, const char* what) {
  for (const ObservationSeq& seq : sequences) {
    for (std::size_t id : seq) {
      if (id >= num_symbols) {
        throw std::invalid_argument(
            std::string("Trainer: ") + what + " symbol " + std::to_string(id) +
            " is outside the initial model's " + std::to_string(num_symbols) +
            "-symbol emission alphabet (vocabulary growth needs a batch fit "
            "against a widened model)");
      }
    }
  }
}

}  // namespace

void SuffStats::reset() {
  for (std::size_t r = 0; r < transition_num.rows(); ++r) {
    auto row = transition_num.row(r);
    std::fill(row.begin(), row.end(), 0.0);
  }
  for (std::size_t r = 0; r < emission_num.rows(); ++r) {
    auto row = emission_num.row(r);
    std::fill(row.begin(), row.end(), 0.0);
  }
  std::fill(transition_den.begin(), transition_den.end(), 0.0);
  std::fill(emission_den.begin(), emission_den.end(), 0.0);
  std::fill(initial.begin(), initial.end(), 0.0);
}

void SuffStats::merge(const SuffStats& other) {
  const std::size_t n = transition_den.size();
  for (std::size_t i = 0; i < n; ++i) {
    auto dst = transition_num.row(i);
    const auto src = other.transition_num.row(i);
    for (std::size_t j = 0; j < dst.size(); ++j) dst[j] += src[j];
    auto edst = emission_num.row(i);
    const auto esrc = other.emission_num.row(i);
    for (std::size_t k = 0; k < edst.size(); ++k) edst[k] += esrc[k];
    transition_den[i] += other.transition_den[i];
    emission_den[i] += other.emission_den[i];
    initial[i] += other.initial[i];
  }
}

void TrainerState::validate() const {
  initial_model.validate();
  const std::size_t n = initial_model.num_states();
  const std::size_t m = initial_model.num_symbols();
  if (cached_count > train.size()) {
    throw std::invalid_argument(
        "TrainerState: cached_count exceeds the absorbed corpus");
  }
  if (holdout_cached > holdout.size()) {
    throw std::invalid_argument(
        "TrainerState: holdout_cached exceeds the absorbed holdout");
  }
  if (observed_prefix > cached_count) {
    throw std::invalid_argument(
        "TrainerState: observed_prefix exceeds cached_count");
  }
  if (!slot_prefix.empty()) {
    if (slot_prefix.size() != kTrainerMergeSlots) {
      throw std::invalid_argument(
          "TrainerState: slot_prefix must hold exactly " +
          std::to_string(kTrainerMergeSlots) + " merge slots");
    }
    for (const SuffStats& slot : slot_prefix) {
      if (slot.transition_num.rows() != n || slot.transition_num.cols() != n ||
          slot.emission_num.rows() != n || slot.emission_num.cols() != m ||
          slot.transition_den.size() != n || slot.emission_den.size() != n ||
          slot.initial.size() != n) {
        throw std::invalid_argument(
            "TrainerState: slot_prefix shape disagrees with initial model");
      }
    }
  } else if (cached_count != 0) {
    throw std::invalid_argument(
        "TrainerState: cached_count without slot_prefix accumulators");
  }
  check_symbol_range(train, m, "train");
  check_symbol_range(holdout, m, "holdout");
}

Trainer::Trainer(Hmm initial_model, TrainingOptions options)
    : options_(std::move(options)) {
  initial_model.validate();
  state_.initial_model = std::move(initial_model);
  state_.max_iterations = options_.max_iterations;
  state_.min_improvement = options_.min_improvement;
  state_.pseudocount = options_.pseudocount;
  state_.patience = options_.patience;
  state_.impossible_penalty = options_.impossible_penalty;
}

Trainer::Trainer(TrainerState state, TrainingOptions options)
    : options_(std::move(options)) {
  state.validate();
  state_ = std::move(state);
  // The replayed trajectory must match the one that produced the cached
  // prefix: the state's numeric knobs are authoritative, the caller only
  // supplies the runtime (exec.threads and observability sinks).
  options_.max_iterations = state_.max_iterations;
  options_.min_improvement = state_.min_improvement;
  options_.pseudocount = state_.pseudocount;
  options_.patience = state_.patience;
  options_.impossible_penalty = state_.impossible_penalty;
}

const Hmm& Trainer::model() const {
  if (!has_model_) {
    throw std::logic_error("Trainer: no model yet; call fit or partial_fit");
  }
  return model_;
}

TrainingReport Trainer::fit(std::vector<ObservationSeq> corpus,
                            std::vector<ObservationSeq> holdout) {
  const std::size_t m = state_.initial_model.num_symbols();
  check_symbol_range(corpus, m, "train");
  check_symbol_range(holdout, m, "holdout");

  state_.train = std::move(corpus);
  state_.holdout = std::move(holdout);
  state_.batches.clear();
  state_.cached_count = 0;
  state_.slot_prefix.clear();
  state_.ll_sum_prefix = 0.0;
  state_.observed_prefix = 0;
  state_.holdout_cached = 0;
  state_.holdout_ll_sum = 0.0;

  TrainingReport report = run_em();

  BatchRecord batch;
  batch.id = 0;
  batch.train_count = state_.train.size();
  batch.holdout_count = state_.holdout.size();
  batch.iterations = report.iterations;
  if (!report.train_log_likelihood.empty()) {
    batch.entry_train_ll = report.train_log_likelihood.front();
    batch.final_train_ll = report.train_log_likelihood.back();
  }
  state_.batches.push_back(batch);
  history_.push_back(report);
  record_run_metrics(report, batch.train_count + batch.holdout_count);
  return report;
}

TrainingReport Trainer::partial_fit(
    const std::vector<ObservationSeq>& new_traces,
    const std::vector<ObservationSeq>& new_holdout) {
  const std::size_t m = state_.initial_model.num_symbols();
  check_symbol_range(new_traces, m, "train");
  check_symbol_range(new_holdout, m, "holdout");

  state_.train.insert(state_.train.end(), new_traces.begin(),
                      new_traces.end());
  state_.holdout.insert(state_.holdout.end(), new_holdout.begin(),
                        new_holdout.end());

  TrainingReport report = run_em();

  BatchRecord batch;
  batch.id = state_.batches.size();
  batch.train_count = new_traces.size();
  batch.holdout_count = new_holdout.size();
  batch.iterations = report.iterations;
  if (!report.train_log_likelihood.empty()) {
    batch.entry_train_ll = report.train_log_likelihood.front();
    batch.final_train_ll = report.train_log_likelihood.back();
  }
  state_.batches.push_back(batch);
  history_.push_back(report);
  record_run_metrics(report, new_traces.size() + new_holdout.size());
  return report;
}

void Trainer::record_run_metrics(const TrainingReport& report,
                                 std::size_t new_sequences) const {
  obs::MetricsRegistry* metrics = options_.exec.metrics;
  if (metrics == nullptr) return;
  metrics->counter("cmarkov_train_runs_total").add(1);
  metrics->counter("cmarkov_train_absorbed_sequences_total")
      .add(new_sequences);
  metrics->gauge("cmarkov_train_last_run_iterations")
      .set(static_cast<double>(report.iterations));
  if (report.train_log_likelihood.size() >= 2) {
    metrics->gauge("cmarkov_train_last_run_ll_delta")
        .set(report.train_log_likelihood.back() -
             report.train_log_likelihood.front());
  }
}

TrainingReport Trainer::run_em() {
  const std::vector<ObservationSeq>& sequences = state_.train;
  const std::vector<ObservationSeq>& holdout = state_.holdout;

  model_ = state_.initial_model;
  has_model_ = true;
  TrainingReport report;
  if (sequences.empty()) return report;

  const std::size_t count = sequences.size();
  const std::size_t n = model_.num_states();
  const std::size_t m = model_.num_symbols();

  WorkerPool pool(options_.exec.threads);
  // B^T and A^T beside the model: with the model's own pi and source-major
  // A, the ForwardTables layout ScoringKernel compiles, plus the A^T that
  // backward_pass reads. Both are rebuilt after each M-step.
  Matrix emission_t = model_.emission.transposed();
  Matrix transition_t = model_.transition.transposed();

  // Resolve instruments once; hot-loop recording is pointer-guarded.
  obs::MetricsRegistry* metrics = options_.exec.metrics;
  obs::RunProfile* profile = options_.exec.profile;
  obs::Counter* iterations_total = nullptr;
  obs::Histogram* estep_seconds = nullptr;
  obs::Histogram* mstep_seconds = nullptr;
  obs::Gauge* ll_delta_gauge = nullptr;
  obs::Gauge* pool_utilization = nullptr;
  obs::Gauge* reuse_ratio = nullptr;
  if (metrics != nullptr) {
    iterations_total = &metrics->counter("cmarkov_train_iterations_total");
    estep_seconds = &metrics->histogram("cmarkov_train_estep_seconds",
                                        obs::seconds_bucket_bounds());
    mstep_seconds = &metrics->histogram("cmarkov_train_mstep_seconds",
                                        obs::seconds_bucket_bounds());
    ll_delta_gauge = &metrics->gauge("cmarkov_train_ll_delta");
    pool_utilization =
        &metrics->gauge("cmarkov_train_pool_utilization_ratio");
    reuse_ratio = &metrics->gauge("cmarkov_train_prefix_reuse_ratio");
  }

  // Iteration-0 prefix: how much of the corpus is already folded into the
  // cached slot accumulators (everything absorbed by earlier runs; the
  // initial model never changes, so that work is exact under replay).
  const bool have_prefix = state_.cached_count > 0 &&
                           state_.slot_prefix.size() == kTrainerMergeSlots;
  const std::size_t folded = have_prefix ? state_.cached_count : 0;
  if (reuse_ratio != nullptr) {
    reuse_ratio->set(static_cast<double>(folded) /
                     static_cast<double>(count));
  }

  // Train-set termination starts from -infinity: its score is the E-step's
  // mean log-likelihood of the model *entering* the iteration, and
  // iteration 1's score already equals the initial model's likelihood.
  // Holdout termination keeps its pre-training baseline, re-derived from
  // the cached θ₀ fold plus the not-yet-scored holdout suffix (the
  // per-sequence scores are order-independent; only the summation order
  // matters, and it is the same left fold a batch run performs).
  double best_score = -std::numeric_limits<double>::infinity();
  if (!holdout.empty()) {
    const std::size_t scored =
        std::min(state_.holdout_cached, holdout.size());
    const double sum = pooled_log_likelihood_sum(
        forward_tables(model_, emission_t),
        std::span(holdout).subspan(scored), options_.impossible_penalty, pool,
        scored > 0 ? state_.holdout_ll_sum : 0.0);
    state_.holdout_ll_sum = sum;
    state_.holdout_cached = holdout.size();
    best_score = sum / static_cast<double>(holdout.size());
  }
  std::size_t stall = 0;

  // Sequence s accumulates into slot s % kTrainerMergeSlots; each slot is
  // processed by exactly one worker in ascending-s order and slots merge
  // in index order on the calling thread, making every accumulator sum
  // independent of the thread count. Iteration 0 continues the cached
  // fold instead of starting from zero.
  std::vector<SuffStats> partial;
  if (have_prefix) {
    partial = state_.slot_prefix;
  } else {
    partial.assign(kTrainerMergeSlots, SuffStats(n, m));
  }
  SuffStats total(n, m);
  std::vector<PassBuffers> buffers(kTrainerMergeSlots);
  std::vector<double> per_sequence_ll(count, options_.impossible_penalty);
  std::vector<unsigned char> accepted(count, 0);

  double prev_train_mean = 0.0;
  bool have_prev_train_mean = false;

  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    // Closes on every exit path out of the iteration, breaks included.
    const obs::ScopedTimer iteration_span(profile, "train-iteration");
    Stopwatch stage_watch;
    const std::size_t skip = iter == 0 ? folded : 0;
    const ForwardTables tables =
        forward_tables(model_, emission_t, transition_t);
    pool.run(kTrainerMergeSlots, [&](std::size_t slot) {
      SuffStats& acc = partial[slot];
      if (skip == 0) acc.reset();
      for (std::size_t s = slot; s < count; s += kTrainerMergeSlots) {
        if (s < skip) continue;  // already in the cached fold
        double ll = options_.impossible_penalty;
        accepted[s] = accumulate_sequence(tables, sequences[s], acc,
                                          buffers[slot], ll)
                          ? 1
                          : 0;
        per_sequence_ll[s] = accepted[s] ? ll : options_.impossible_penalty;
      }
    });
    if (pool_utilization != nullptr) {
      pool_utilization->set(pool.last_run_stats().utilization());
    }

    std::size_t observed = 0;
    double ll_sum = 0.0;
    if (iter == 0) {
      observed = have_prefix ? state_.observed_prefix : 0;
      ll_sum = have_prefix ? state_.ll_sum_prefix : 0.0;
      for (std::size_t s = skip; s < count; ++s) {
        observed += accepted[s];
        ll_sum += per_sequence_ll[s];
      }
      // Snapshot the extended fold: the next run's iteration 0 (and a
      // resumed process, via model_io) continues from exactly here.
      state_.slot_prefix = partial;
      state_.cached_count = count;
      state_.ll_sum_prefix = ll_sum;
      state_.observed_prefix = observed;
    } else {
      for (std::size_t s = 0; s < count; ++s) {
        observed += accepted[s];
        ll_sum += per_sequence_ll[s];
      }
    }
    report.skipped_sequences = count - observed;
    if (observed == 0) {
      // Model rejects everything; nothing to learn.
      const double estep_s = stage_watch.seconds();
      if (estep_seconds != nullptr) estep_seconds->record(estep_s);
      if (profile != nullptr) profile->record("e-step", estep_s);
      break;
    }

    total.reset();
    for (const SuffStats& acc : partial) total.merge(acc);

    // The E-step forward passes already produced every train-set
    // log-likelihood; reuse them instead of a second full scoring sweep.
    // (This is the likelihood of the model entering the iteration.)
    const double train_mean = ll_sum / static_cast<double>(count);
    {
      const double estep_s = stage_watch.seconds();
      if (estep_seconds != nullptr) estep_seconds->record(estep_s);
      if (profile != nullptr) profile->record("e-step", estep_s);
    }

    stage_watch.reset();
    reestimate(model_, total, options_.pseudocount, observed);
    emission_t = model_.emission.transposed();
    transition_t = model_.transition.transposed();
    {
      const double mstep_s = stage_watch.seconds();
      if (mstep_seconds != nullptr) mstep_seconds->record(mstep_s);
      if (profile != nullptr) profile->record("m-step", mstep_s);
    }
    report.iterations = iter + 1;
    report.train_log_likelihood.push_back(train_mean);
    if (iterations_total != nullptr) iterations_total->add(1);
    if (ll_delta_gauge != nullptr && have_prev_train_mean) {
      ll_delta_gauge->set(train_mean - prev_train_mean);
    }
    prev_train_mean = train_mean;
    have_prev_train_mean = true;

    stage_watch.reset();
    const double score =
        holdout.empty()
            ? train_mean
            : pooled_log_likelihood_sum(forward_tables(model_, emission_t),
                                        holdout, options_.impossible_penalty,
                                        pool) /
                  static_cast<double>(holdout.size());
    if (!holdout.empty()) {
      report.holdout_log_likelihood.push_back(score);
      if (profile != nullptr) {
        profile->record("holdout-score", stage_watch.seconds());
      }
    }

    if (score - best_score < options_.min_improvement) {
      ++stall;
      if (stall > options_.patience) {
        report.converged = true;
        break;
      }
    } else {
      stall = 0;
    }
    if (score > best_score) best_score = score;
  }
  log_debug() << "trainer: " << report.iterations << " iteration(s)"
              << (report.converged ? ", converged" : "") << ", "
              << report.skipped_sequences << " skipped, "
              << folded << "/" << count << " iteration-0 sequences reused";
  return report;
}

}  // namespace cmarkov::hmm

// Unit tests for multi-sequence Baum-Welch training with held-out
// termination (the paper's training protocol).
#include <gtest/gtest.h>

#include <cmath>

#include "src/hmm/baum_welch.hpp"
#include "src/hmm/forward_backward.hpp"
#include "src/hmm/forward_reference.hpp"
#include "src/hmm/random_init.hpp"
#include "src/hmm/trainer.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace cmarkov::hmm {
namespace {

/// Generates sequences from a known 2-state model.
std::vector<ObservationSeq> sample_sequences(const Hmm& model, Rng& rng,
                                             std::size_t count,
                                             std::size_t length) {
  std::vector<ObservationSeq> out;
  for (std::size_t s = 0; s < count; ++s) {
    ObservationSeq seq;
    std::vector<double> init = model.initial;
    std::size_t state = rng.weighted_index(init);
    for (std::size_t t = 0; t < length; ++t) {
      std::vector<double> em(model.num_symbols());
      for (std::size_t k = 0; k < em.size(); ++k) {
        em[k] = model.emission(state, k);
      }
      seq.push_back(rng.weighted_index(em));
      std::vector<double> tr(model.num_states());
      for (std::size_t j = 0; j < tr.size(); ++j) {
        tr[j] = model.transition(state, j);
      }
      state = rng.weighted_index(tr);
    }
    out.push_back(std::move(seq));
  }
  return out;
}

/// Mean log-likelihood of `data` under `model` (reference recursion).
double mean_log_likelihood_of(const Hmm& model,
                              const std::vector<ObservationSeq>& data) {
  double sum = 0.0;
  for (const ObservationSeq& seq : data) {
    sum += sequence_log_likelihood(model, seq);
  }
  return sum / static_cast<double>(data.size());
}

Hmm ground_truth() {
  Hmm model;
  model.transition = Matrix::from_rows({{0.9, 0.1}, {0.2, 0.8}});
  model.emission = Matrix::from_rows({{0.95, 0.05}, {0.1, 0.9}});
  model.initial = {0.7, 0.3};
  return model;
}

TEST(BaumWelchTest, TrainingImprovesLikelihood) {
  Rng rng(1);
  const auto data = sample_sequences(ground_truth(), rng, 40, 20);
  Hmm model = randomly_initialized_hmm(2, 2, rng);
  const double before = mean_log_likelihood_of(model, data);
  TrainingOptions options;
  options.max_iterations = 20;
  Trainer trainer(model, options);
  const TrainingReport report = trainer.fit(data);
  const double after = mean_log_likelihood_of(trainer.model(), data);
  EXPECT_GT(after, before);
  EXPECT_GE(report.iterations, 1u);
  EXPECT_NO_THROW(trainer.model().validate(1e-6));
}

TEST(BaumWelchTest, LikelihoodIsMonotoneNonDecreasing) {
  Rng rng(2);
  const auto data = sample_sequences(ground_truth(), rng, 30, 15);
  Hmm model = randomly_initialized_hmm(2, 2, rng);
  TrainingOptions options;
  options.max_iterations = 15;
  options.min_improvement = -1.0;  // never early-stop
  options.patience = 1000;
  Trainer trainer(model, options);
  const TrainingReport report = trainer.fit(data);
  for (std::size_t i = 1; i < report.train_log_likelihood.size(); ++i) {
    EXPECT_GE(report.train_log_likelihood[i],
              report.train_log_likelihood[i - 1] - 1e-6)
        << "iteration " << i;
  }
}

TEST(BaumWelchTest, RecoversDominantStructure) {
  // Baum-Welch is a local optimizer, so allow a few random restarts and
  // require that the best-likelihood solution recovers the structure.
  Rng rng(3);
  const Hmm truth = ground_truth();
  const auto data = sample_sequences(truth, rng, 120, 30);
  Hmm best;
  double best_ll = -std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < 5; ++restart) {
    TrainingOptions options;
    options.max_iterations = 60;
    options.min_improvement = 1e-7;
    options.patience = 3;
    Trainer trainer(randomly_initialized_hmm(2, 2, rng), options);
    trainer.fit(data);
    const Hmm model = trainer.model();
    const double ll = mean_log_likelihood_of(model, data);
    if (ll > best_ll) {
      best_ll = ll;
      best = model;
    }
  }
  // Up to state relabeling, each state should emit one dominant symbol.
  const double e00 = best.emission(0, 0);
  const double e11 = best.emission(1, 1);
  const double e01 = best.emission(0, 1);
  const double e10 = best.emission(1, 0);
  const bool direct = e00 > 0.75 && e11 > 0.75;
  const bool swapped = e01 > 0.75 && e10 > 0.75;
  EXPECT_TRUE(direct || swapped)
      << "emissions: " << best.emission.to_string(3);
}

TEST(BaumWelchTest, HoldoutTerminationStopsEarly) {
  Rng rng(4);
  const auto data = sample_sequences(ground_truth(), rng, 60, 20);
  std::vector<ObservationSeq> train(data.begin(), data.begin() + 45);
  std::vector<ObservationSeq> holdout(data.begin() + 45, data.end());
  Hmm model = randomly_initialized_hmm(2, 2, rng);
  TrainingOptions options;
  options.max_iterations = 200;
  options.min_improvement = 1e-3;
  Trainer trainer(model, options);
  const TrainingReport report = trainer.fit(train, holdout);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.iterations, 200u);
  EXPECT_EQ(report.holdout_log_likelihood.size(), report.iterations);
}

TEST(BaumWelchTest, EmptyTrainingSetIsNoOp) {
  Rng rng(5);
  const Hmm before = randomly_initialized_hmm(2, 2, rng);
  Trainer trainer(before);
  const TrainingReport report = trainer.fit({});
  EXPECT_EQ(report.iterations, 0u);
  EXPECT_EQ(trainer.model().transition, before.transition);
}

TEST(BaumWelchTest, SkipsImpossibleSequences) {
  // A model that cannot emit symbol 1 at all must skip such sequences and
  // still learn from the possible ones.
  Hmm model;
  model.transition = Matrix::from_rows({{0.5, 0.5}, {0.5, 0.5}});
  model.emission = Matrix::from_rows({{1.0, 0.0}, {1.0, 0.0}});
  model.initial = {0.5, 0.5};
  const std::vector<ObservationSeq> data = {{0, 0, 0}, {0, 1, 0}};
  TrainingOptions options;
  // One iteration: the report's skip count reflects the last iteration, and
  // after re-estimation the pseudocount makes symbol 1 possible again.
  options.max_iterations = 1;
  options.min_improvement = -1.0;
  Trainer trainer(model, options);
  const TrainingReport report = trainer.fit(data);
  EXPECT_EQ(report.skipped_sequences, 1u);
  EXPECT_NO_THROW(trainer.model().validate(1e-6));
}

TEST(BaumWelchTest, PseudocountKeepsParametersPositive) {
  Rng rng(6);
  // Train on a single repetitive sequence; without pseudocounts many cells
  // would collapse to exactly zero.
  const std::vector<ObservationSeq> data = {{0, 0, 0, 0, 0, 0}};
  TrainingOptions options;
  options.max_iterations = 10;
  options.pseudocount = 1e-6;
  Trainer trainer(randomly_initialized_hmm(2, 2, rng), options);
  trainer.fit(data);
  const Hmm model = trainer.model();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_GT(model.transition(i, j), 0.0);
      EXPECT_GT(model.emission(i, j), 0.0);
    }
  }
}

// The Trainer's holdout score: impossible and empty sequences count as the
// penalty, and the sum does not depend on the thread count.
TEST(MeanLogLikelihoodTest, PenalizesImpossibleSequences) {
  Hmm model;
  model.transition = Matrix::from_rows({{1.0}});
  model.emission = Matrix::from_rows({{1.0, 0.0}});
  model.initial = {1.0};
  const Matrix emission_t = model.emission.transposed();
  const ForwardTables tables = forward_tables(model, emission_t);
  WorkerPool one(1);
  const std::vector<ObservationSeq> data = {{0, 0}, {0, 1}};
  EXPECT_NEAR(pooled_log_likelihood_sum(tables, data, -100.0, one) / 2,
              -50.0, 1e-9);  // (0 + -100) / 2
  // An empty sequence is not a perfect (log-likelihood 0) observation.
  const std::vector<ObservationSeq> with_empty = {{0, 0}, {0, 1}, {}};
  EXPECT_NEAR(pooled_log_likelihood_sum(tables, with_empty, -100.0, one) / 3,
              -200.0 / 3, 1e-9);

  // More sequences than one work item holds, so two threads split them.
  Rng rng(5);
  const Hmm truth = ground_truth();
  const Matrix truth_emission_t = truth.emission.transposed();
  const ForwardTables truth_tables = forward_tables(truth, truth_emission_t);
  auto sampled = sample_sequences(truth, rng, 150, 12);
  const double without_empty =
      pooled_log_likelihood_sum(truth_tables, sampled, -1e4, one);
  sampled.push_back(ObservationSeq{});
  const double sequential =
      pooled_log_likelihood_sum(truth_tables, sampled, -1e4, one);
  EXPECT_EQ(sequential, without_empty + -1e4);
  WorkerPool two(2);
  EXPECT_EQ(pooled_log_likelihood_sum(truth_tables, sampled, -1e4, two),
            sequential);
}

}  // namespace
}  // namespace cmarkov::hmm

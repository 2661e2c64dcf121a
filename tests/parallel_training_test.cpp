// Bit-identity tests for the parallel training engine: Baum-Welch, holdout
// scoring, k-means and PCA must all produce byte-for-byte identical results
// at every thread count, and the production forward/backward passes must
// match the reference recursions.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/hmm/baum_welch.hpp"  // mean_log_likelihood
#include "src/hmm/forward_backward.hpp"
#include "src/hmm/trainer.hpp"
#include "src/hmm/random_init.hpp"
#include "src/linalg/kmeans.hpp"
#include "src/linalg/pca.hpp"
#include "src/util/rng.hpp"

namespace cmarkov::hmm {
namespace {

std::vector<ObservationSeq> random_sequences(std::size_t count,
                                             std::size_t length,
                                             std::size_t num_symbols,
                                             Rng& rng) {
  std::vector<ObservationSeq> out;
  for (std::size_t s = 0; s < count; ++s) {
    ObservationSeq seq(length);
    for (auto& x : seq) x = rng.index(num_symbols);
    out.push_back(std::move(seq));
  }
  return out;
}

struct TrainRun {
  Hmm model;
  TrainingReport report;
};

TrainRun train_with_threads(const Hmm& initial,
                            const std::vector<ObservationSeq>& data,
                            const std::vector<ObservationSeq>& holdout,
                            std::size_t num_threads) {
  TrainRun run;
  TrainingOptions options;
  options.max_iterations = 6;
  options.min_improvement = -1.0;  // run every iteration
  options.exec.threads = num_threads;
  Trainer trainer(initial, options);
  run.report = trainer.fit(data, holdout);
  run.model = trainer.model();
  return run;
}

void expect_identical(const TrainRun& a, const TrainRun& b) {
  EXPECT_EQ(a.model.transition, b.model.transition);
  EXPECT_EQ(a.model.emission, b.model.emission);
  EXPECT_EQ(a.model.initial, b.model.initial);
  EXPECT_EQ(a.report.iterations, b.report.iterations);
  EXPECT_EQ(a.report.converged, b.report.converged);
  EXPECT_EQ(a.report.skipped_sequences, b.report.skipped_sequences);
  // Vector equality here is bitwise double equality, element by element.
  EXPECT_EQ(a.report.train_log_likelihood, b.report.train_log_likelihood);
  EXPECT_EQ(a.report.holdout_log_likelihood, b.report.holdout_log_likelihood);
}

TEST(ParallelTrainingTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const Hmm initial = randomly_initialized_hmm(12, 9, rng);
  const auto data = random_sequences(60, 18, 9, rng);

  const TrainRun reference = train_with_threads(initial, data, {}, 1);
  for (std::size_t threads : {2u, 8u}) {
    const TrainRun run = train_with_threads(initial, data, {}, threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(reference, run);
  }
}

TEST(ParallelTrainingTest, BitIdenticalWithHoldout) {
  Rng rng(23);
  const Hmm initial = randomly_initialized_hmm(8, 6, rng);
  const auto data = random_sequences(40, 15, 6, rng);
  const auto holdout = random_sequences(10, 15, 6, rng);

  const TrainRun reference = train_with_threads(initial, data, holdout, 1);
  for (std::size_t threads : {2u, 8u}) {
    const TrainRun run = train_with_threads(initial, data, holdout, threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(reference, run);
  }
}

/// Makes the last symbol unemittable (probability zero in every state)
/// while keeping emission rows normalized, so sequences containing it are
/// rejected as impossible.
Hmm without_last_symbol(Hmm model) {
  const std::size_t last = model.num_symbols() - 1;
  for (std::size_t i = 0; i < model.num_states(); ++i) {
    model.emission(i, 0) += model.emission(i, last);
    model.emission(i, last) = 0.0;
  }
  return model;
}

TEST(ParallelTrainingTest, BitIdenticalWithRejectedSequences) {
  Rng rng(37);
  const Hmm initial = without_last_symbol(randomly_initialized_hmm(6, 5, rng));
  auto data = random_sequences(25, 12, 4, rng);
  data.insert(data.begin() + 3, ObservationSeq{});         // empty
  data.insert(data.begin() + 9, ObservationSeq{4, 1, 2});  // impossible
  auto holdout = random_sequences(8, 12, 4, rng);
  holdout.push_back(ObservationSeq{});

  const TrainRun reference = train_with_threads(initial, data, holdout, 1);
  EXPECT_GT(reference.report.skipped_sequences, 0u);
  for (std::size_t threads : {2u, 8u}) {
    const TrainRun run = train_with_threads(initial, data, holdout, threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(reference, run);
  }
}

TEST(ParallelTrainingTest, MeanLogLikelihoodMatchesSequentialBitwise) {
  Rng rng(5);
  const Hmm model = without_last_symbol(randomly_initialized_hmm(10, 7, rng));
  auto data = random_sequences(33, 14, 6, rng);
  data.push_back(ObservationSeq{6});  // impossible: zero-emission symbol

  const double sequential = mean_log_likelihood(model, data, -1e4, 1);
  for (std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(mean_log_likelihood(model, data, -1e4, threads), sequential);
  }
}

TEST(ParallelTrainingTest, MeanLogLikelihoodPenalizesEmptySequences) {
  Rng rng(5);
  const Hmm model = randomly_initialized_hmm(4, 3, rng);
  const auto data = random_sequences(4, 10, 3, rng);
  const double without_empty = mean_log_likelihood(model, data);

  auto with_empty = data;
  with_empty.push_back(ObservationSeq{});
  const double with_empty_mean = mean_log_likelihood(model, with_empty);
  // An empty sequence must drag the mean toward the penalty, not count as
  // a perfect (log-likelihood 0) observation.
  EXPECT_LT(with_empty_mean, without_empty);
  const double expected =
      (without_empty * static_cast<double>(data.size()) + -1e4) /
      static_cast<double>(with_empty.size());
  EXPECT_NEAR(with_empty_mean, expected, 1e-9);
}

TEST(ForwardPassTest, ForwardBackwardMatchesUncachedBitwise) {
  // The production passes, run with kept alpha rows as the Trainer E-step
  // runs them, must reproduce the forward_scaled / backward_scaled oracle
  // bit for bit — alpha rows, scales, likelihood and beta — including an
  // impossible sequence (scales zero-filled from the failing step).
  Rng rng(71);
  const Hmm model = randomly_initialized_hmm(14, 11, rng);
  Hmm mute = model;  // no state can emit symbol 3
  for (std::size_t i = 0; i < mute.num_states(); ++i) mute.emission(i, 3) = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const bool impossible = trial == 5;
    const Hmm& m = impossible ? mute : model;
    ObservationSeq seq(20);
    for (auto& x : seq) x = rng.index(m.num_symbols());
    if (impossible) seq[7] = 3;

    const Matrix emission_t = m.emission.transposed();
    const ForwardTables tables = forward_tables(m, emission_t);
    Matrix alpha(seq.size(), m.num_states());
    std::vector<double> scales(seq.size(), -1.0);
    const double ll = forward_pass(
        tables, seq,
        {.alpha = &alpha(0, 0), .keep_rows = true, .scales = scales.data()});
    const ForwardResult oracle = forward_scaled(m, seq);
    EXPECT_EQ(oracle.impossible, impossible);
    EXPECT_EQ(oracle.alpha, alpha);
    EXPECT_EQ(oracle.scales, scales);
    EXPECT_EQ(oracle.log_likelihood, ll);
    if (impossible) continue;  // backward is undefined past a zero scale

    Matrix beta(seq.size(), m.num_states());
    backward_pass(tables, seq, scales, &beta(0, 0));
    EXPECT_EQ(backward_scaled(m, seq, oracle.scales), beta);
  }
}

}  // namespace
}  // namespace cmarkov::hmm

namespace cmarkov {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = rng.uniform();
    }
  }
  return m;
}

TEST(ParallelKMeansTest, DeterministicAcrossThreadCounts) {
  Rng data_rng(3);
  const Matrix samples = random_matrix(90, 12, data_rng);

  KMeansOptions options;
  options.exec.threads = 1;
  Rng rng_a(42);
  const KMeansResult reference = kmeans(samples, 7, rng_a, options);

  options.exec.threads = 4;
  Rng rng_b(42);
  const KMeansResult threaded = kmeans(samples, 7, rng_b, options);

  EXPECT_EQ(reference.assignment, threaded.assignment);
  EXPECT_EQ(reference.centroids, threaded.centroids);
  EXPECT_EQ(reference.inertia, threaded.inertia);
  EXPECT_EQ(reference.iterations, threaded.iterations);
}

TEST(ParallelPcaTest, TruncatedPathDeterministicAcrossThreadCounts) {
  Rng rng(9);
  // 180 columns exceeds exact_dimension_limit (160), forcing the truncated
  // orthogonal-iteration path whose covariance step is parallelized.
  const Matrix samples = random_matrix(60, 180, rng);

  PcaOptions options;
  options.max_components = 8;
  options.exec.threads = 1;
  const Pca reference = Pca::fit(samples, options);

  options.exec.threads = 4;
  const Pca threaded = Pca::fit(samples, options);

  EXPECT_EQ(reference.basis(), threaded.basis());
  EXPECT_EQ(reference.explained_variance_ratio(),
            threaded.explained_variance_ratio());

  const Matrix projected_1 = reference.transform(samples, 1);
  const Matrix projected_4 = reference.transform(samples, 4);
  EXPECT_EQ(projected_1, projected_4);
}

}  // namespace
}  // namespace cmarkov

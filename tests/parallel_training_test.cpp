// Bit-identity tests for the parallel training engine: Baum-Welch, holdout
// scoring, k-means and PCA must all produce byte-for-byte identical results
// at every thread count, the production forward/backward passes and the
// expected-transition loop must match the reference recursions at every
// block remainder, and a small fixed-seed fit keeps its recorded bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/model_io.hpp"
#include "src/hmm/baum_welch.hpp"
#include "src/hmm/forward_backward.hpp"
#include "src/hmm/forward_reference.hpp"
#include "src/hmm/trainer.hpp"
#include "src/hmm/random_init.hpp"
#include "src/linalg/kmeans.hpp"
#include "src/linalg/pca.hpp"
#include "src/util/rng.hpp"

namespace cmarkov::hmm {
namespace {

ObservationSeq random_sequence(std::size_t length, std::size_t num_symbols,
                               Rng& rng) {
  ObservationSeq seq(length);
  for (auto& x : seq) x = rng.index(num_symbols);
  return seq;
}

std::vector<ObservationSeq> random_sequences(std::size_t count,
                                             std::size_t length,
                                             std::size_t num_symbols,
                                             Rng& rng) {
  std::vector<ObservationSeq> out;
  for (std::size_t s = 0; s < count; ++s) {
    out.push_back(random_sequence(length, num_symbols, rng));
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

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

TEST(TrainingGuardTest, FixedSeedFitKeepsItsRecordedBits) {
  // A small fixed-seed fit whose every trained double is pinned: the saved
  // trainer state (θ₀, corpus and the iteration-0 slot folds, doubles as
  // hex bit patterns) plus the trained model and LL trajectory, digested
  // with 64-bit FNV-1a. The digest was recorded before the E-step loops
  // were register-blocked; any change to a forward, backward or xi sum
  // order moves it. N = 7 is not a multiple of the 4-row block, sequence
  // lengths 1..30 cover every remainder of the 4-step xi block, and the
  // zeroed initial and emission entries give exact-zero alphas.
  Rng rng(20161);
  Hmm initial = randomly_initialized_hmm(7, 6, rng);
  initial.initial[0] += initial.initial[2] + initial.initial[5];
  initial.initial[2] = 0.0;
  initial.initial[5] = 0.0;
  initial.emission(3, 1) += initial.emission(3, 4);
  initial.emission(3, 4) = 0.0;
  std::vector<ObservationSeq> corpus;
  for (std::size_t length = 1; length <= 30; ++length) {
    corpus.push_back(random_sequence(length, 6, rng));
  }
  TrainingOptions options;
  options.max_iterations = 4;
  options.min_improvement = -1.0;  // run every iteration
  options.exec.threads = 2;
  Trainer trainer(initial, options);
  const TrainingReport report = trainer.fit(corpus);

  std::ostringstream saved;
  core::save_trainer_state(saved, trainer.state());
  saved << std::hex;
  const Hmm& model = trainer.model();
  const auto put = [&](double v) {
    saved << std::bit_cast<std::uint64_t>(v) << ' ';
  };
  for (std::size_t i = 0; i < model.num_states(); ++i) {
    for (std::size_t j = 0; j < model.num_states(); ++j) {
      put(model.transition(i, j));
    }
    for (std::size_t k = 0; k < model.num_symbols(); ++k) {
      put(model.emission(i, k));
    }
    put(model.initial[i]);
  }
  for (const double ll : report.train_log_likelihood) put(ll);
  EXPECT_EQ(report.iterations, 4u);
  EXPECT_EQ(fnv1a64(saved.str()), 0x9d7d5a409930616eull) << saved.str();
}

// State counts and lengths that cover the 4-row (forward, backward) and
// 4-step (expected transitions) blocks with every remainder, plus the
// serve models' sizes (25, 36, 39, 50).
constexpr std::size_t kBlockStates[] = {1, 2, 3, 4, 5, 7, 8, 13, 25, 36, 39, 50};
constexpr std::size_t kBlockLengths[] = {1, 2, 3, 4, 5, 9, 20};

// The two builds of the production passes, each run by name: the
// baseline first, then AVX2 where the CPU has it.
std::vector<std::pair<const char*, const PassBuild*>> pass_builds() {
  std::vector<std::pair<const char*, const PassBuild*>> builds = {
      {"baseline", &baseline_passes()}};
  if (avx2_passes() != nullptr) builds.emplace_back("avx2", avx2_passes());
  return builds;
}

TEST(ForwardPassTest, ForwardBackwardMatchesUncachedBitwise) {
  // Both builds of the production passes, run with kept alpha rows as the
  // Trainer E-step runs them, must reproduce the forward_scaled /
  // backward_scaled oracle bit for bit — alpha rows, scales, likelihood and
  // beta — including an impossible sequence (scales zero-filled from the
  // failing step).
  for (const auto& [name, build] : pass_builds()) {
    Rng rng(71);
    for (const std::size_t n : kBlockStates) {
      const Hmm model = randomly_initialized_hmm(n, 11, rng);
      Hmm mute = model;  // no state can emit symbol 3
      for (std::size_t i = 0; i < n; ++i) mute.emission(i, 3) = 0;
      const Matrix emission_t = model.emission.transposed();
      const Matrix mute_emission_t = mute.emission.transposed();
      const Matrix transition_t = model.transition.transposed();
      for (const std::size_t t_len : kBlockLengths) {
        for (int trial = 0; trial < 4; ++trial) {
          SCOPED_TRACE(std::string(name) + " N=" + std::to_string(n) +
                       " T=" + std::to_string(t_len) +
                       " trial=" + std::to_string(trial));
          const bool impossible = trial == 3;
          const Hmm& m = impossible ? mute : model;
          ObservationSeq seq = random_sequence(t_len, m.num_symbols(), rng);
          if (impossible) seq[std::min<std::size_t>(7, t_len - 1)] = 3;

          const ForwardTables tables = forward_tables(
              m, impossible ? mute_emission_t : emission_t, transition_t);
          Matrix alpha(seq.size(), n);
          std::vector<double> scales(seq.size(), -1.0);
          const double ll = build->forward_pass(
              tables, seq,
              {.alpha = alpha.data(), .keep_rows = true,
               .scales = scales.data()});
          const ForwardResult oracle = forward_scaled(m, seq);
          EXPECT_EQ(oracle.impossible, impossible);
          EXPECT_EQ(oracle.alpha, alpha);
          EXPECT_EQ(oracle.scales, scales);
          EXPECT_EQ(oracle.log_likelihood, ll);
          if (impossible) continue;  // backward is undefined past a zero scale

          Matrix beta(seq.size(), n);
          build->backward_pass(tables, seq, scales, beta.data());
          EXPECT_EQ(backward_scaled(m, seq, oracle.scales), beta);
        }
      }
    }
  }
  if (avx2_passes() == nullptr) GTEST_SKIP() << "no AVX2: baseline only";
}

TEST(ExpectedTransitionsTest, MatchesNaiveTripleLoopBitwise) {
  // Both builds of accumulate_expected_transitions must add exactly the xi
  // terms of the naive t / i / j loop, in the same order, into counts that
  // already hold earlier sequences' sums. State 1 starts with probability
  // 0 and state N-1 cannot emit symbol 2, so exact-zero alphas fall inside
  // blocks of four steps and take the per-step fallback.
  for (const auto& [name, build] : pass_builds()) {
    Rng rng(83);
    std::size_t zero_alphas = 0;
    for (const std::size_t n : kBlockStates) {
      Hmm model = randomly_initialized_hmm(n, 6, rng);
      if (n >= 2) {
        model.initial[0] += model.initial[1];
        model.initial[1] = 0.0;
        model.emission(n - 1, 0) += model.emission(n - 1, 2);
        model.emission(n - 1, 2) = 0.0;
      }
      const Matrix emission_t = model.emission.transposed();
      const ForwardTables tables = forward_tables(model, emission_t);
      for (const std::size_t t_len : kBlockLengths) {
        SCOPED_TRACE(std::string(name) + " N=" + std::to_string(n) +
                     " T=" + std::to_string(t_len));
        const ObservationSeq seq = random_sequence(t_len, 6, rng);
        const ForwardResult fwd = forward_scaled(model, seq);
        ASSERT_FALSE(fwd.impossible);
        const Matrix beta = backward_scaled(model, seq, fwd.scales);

        Matrix expected(n, n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) expected(i, j) = rng.uniform();
        }
        Matrix counts = expected;
        for (std::size_t t = 0; t + 1 < t_len; ++t) {
          for (std::size_t i = 0; i < n; ++i) {
            const double a = fwd.alpha(t, i);
            if (a == 0.0) {
              ++zero_alphas;
              continue;
            }
            for (std::size_t j = 0; j < n; ++j) {
              expected(i, j) += a * model.transition(i, j) *
                                model.emission(j, seq[t + 1]) * beta(t + 1, j);
            }
          }
        }
        build->accumulate_expected_transitions(tables, seq, fwd.alpha.data(),
                                               beta.data(), counts.data());
        EXPECT_EQ(expected, counts);
      }
    }
    EXPECT_GT(zero_alphas, 0u) << name;
  }
  if (avx2_passes() == nullptr) GTEST_SKIP() << "no AVX2: baseline only";
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

// Unit tests for the scaled forward/backward recursions, checked against
// brute-force enumeration over all hidden-state paths.
#include <gtest/gtest.h>

#include <cmath>

#include "src/hmm/forward_reference.hpp"

namespace cmarkov::hmm {
namespace {

Hmm weather_model() {
  // Classic 2-state (rain/sun) model with 2 observations (walk/shop).
  Hmm model;
  model.transition = Matrix::from_rows({{0.7, 0.3}, {0.4, 0.6}});
  model.emission = Matrix::from_rows({{0.1, 0.9}, {0.8, 0.2}});
  model.initial = {0.5, 0.5};
  return model;
}

/// Brute-force P(obs) by summing over every state path.
double brute_force_probability(const Hmm& model,
                               const std::vector<std::size_t>& obs) {
  const std::size_t n = model.num_states();
  const std::size_t t_len = obs.size();
  double total = 0.0;
  std::vector<std::size_t> path(t_len, 0);
  while (true) {
    double p = model.initial[path[0]] * model.emission(path[0], obs[0]);
    for (std::size_t t = 1; t < t_len; ++t) {
      p *= model.transition(path[t - 1], path[t]) *
           model.emission(path[t], obs[t]);
    }
    total += p;
    // Odometer increment over paths.
    std::size_t pos = 0;
    while (pos < t_len && ++path[pos] == n) {
      path[pos] = 0;
      ++pos;
    }
    if (pos == t_len) break;
  }
  return total;
}

TEST(ForwardTest, MatchesBruteForceOnShortSequences) {
  const Hmm model = weather_model();
  const std::vector<std::vector<std::size_t>> sequences = {
      {0}, {1}, {0, 1}, {1, 1, 0}, {0, 0, 1, 1, 0}};
  for (const auto& obs : sequences) {
    const double expected = brute_force_probability(model, obs);
    EXPECT_NEAR(std::exp(sequence_log_likelihood(model, obs)), expected,
                1e-12);
    EXPECT_NEAR(sequence_log_likelihood(model, obs), std::log(expected),
                1e-10);
  }
}

TEST(ForwardTest, EmptySequenceHasLogLikelihoodZero) {
  const Hmm model = weather_model();
  const std::vector<std::size_t> empty;
  EXPECT_DOUBLE_EQ(sequence_log_likelihood(model, empty), 0.0);
}

TEST(ForwardTest, SingleSymbolIsWeightedEmission) {
  const Hmm model = weather_model();
  const std::vector<std::size_t> obs = {0};
  // P = 0.5*0.1 + 0.5*0.8.
  EXPECT_NEAR(std::exp(sequence_log_likelihood(model, obs)), 0.45, 1e-14);
}

TEST(ForwardTest, ImpossibleObservationYieldsMinusInfinity) {
  Hmm model = weather_model();
  // State emissions never produce symbol 1 from anywhere.
  model.emission = Matrix::from_rows({{1.0, 0.0}, {1.0, 0.0}});
  const std::vector<std::size_t> obs = {0, 1, 0};
  const ForwardResult result = forward_scaled(model, obs);
  EXPECT_TRUE(result.impossible);
  EXPECT_TRUE(std::isinf(result.log_likelihood));
  EXPECT_LT(result.log_likelihood, 0.0);
  EXPECT_DOUBLE_EQ(std::exp(sequence_log_likelihood(model, obs)), 0.0);
}

TEST(ForwardTest, RejectsOutOfRangeObservation) {
  const Hmm model = weather_model();
  const std::vector<std::size_t> obs = {0, 2};
  EXPECT_THROW(forward_scaled(model, obs), std::out_of_range);
}

TEST(ForwardTest, ScalingHandlesLongSequences) {
  const Hmm model = weather_model();
  std::vector<std::size_t> obs(500);
  for (std::size_t i = 0; i < obs.size(); ++i) obs[i] = i % 2;
  const double log_lik = sequence_log_likelihood(model, obs);
  EXPECT_TRUE(std::isfinite(log_lik));
  EXPECT_LT(log_lik, -100.0);  // far below raw double underflow territory
}

TEST(ForwardTest, AlphaRowsAreNormalized) {
  const Hmm model = weather_model();
  const std::vector<std::size_t> obs = {0, 1, 1, 0};
  const ForwardResult result = forward_scaled(model, obs);
  for (std::size_t t = 0; t < obs.size(); ++t) {
    double total = 0.0;
    for (std::size_t i = 0; i < model.num_states(); ++i) {
      total += result.alpha(t, i);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(BackwardTest, GammaSumsToOneEachStep) {
  // With Rabiner scaling, alpha(t,i)*beta(t,i)*c_t is the posterior
  // gamma(t,i), which must sum to 1 over states at every t.
  const Hmm model = weather_model();
  const std::vector<std::size_t> obs = {1, 0, 0, 1, 0};
  const ForwardResult fwd = forward_scaled(model, obs);
  const Matrix beta = backward_scaled(model, obs, fwd.scales);
  for (std::size_t t = 0; t < obs.size(); ++t) {
    double total = 0.0;
    for (std::size_t i = 0; i < model.num_states(); ++i) {
      total += fwd.alpha(t, i) * beta(t, i) * fwd.scales[t];
    }
    EXPECT_NEAR(total, 1.0, 1e-10) << "t=" << t;
  }
}

TEST(BackwardTest, RejectsMismatchedScales) {
  const Hmm model = weather_model();
  const std::vector<std::size_t> obs = {0, 1};
  const std::vector<double> wrong_scales = {0.5};
  EXPECT_THROW(backward_scaled(model, obs, wrong_scales),
               std::invalid_argument);
}

TEST(ForwardTest, DeterministicChainScoresExactly) {
  // Deterministic left-to-right 3-state chain emitting its own id.
  Hmm model;
  model.transition =
      Matrix::from_rows({{0, 1, 0}, {0, 0, 1}, {0, 0, 1}});
  model.emission = Matrix::identity(3);
  model.initial = {1.0, 0.0, 0.0};
  const std::vector<std::size_t> good = {0, 1, 2};
  EXPECT_NEAR(std::exp(sequence_log_likelihood(model, good)), 1.0, 1e-12);
  const std::vector<std::size_t> bad = {0, 2, 1};
  EXPECT_DOUBLE_EQ(std::exp(sequence_log_likelihood(model, bad)), 0.0);
}

}  // namespace
}  // namespace cmarkov::hmm

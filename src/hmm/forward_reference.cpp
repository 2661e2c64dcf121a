#include "src/hmm/forward_reference.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace cmarkov::hmm {

ForwardResult forward_scaled(const Hmm& model,
                             std::span<const std::size_t> observations) {
  const std::size_t n = model.num_states();
  const std::size_t t_len = observations.size();
  ForwardResult result;
  if (t_len == 0) {
    result.log_likelihood = 0.0;
    return result;
  }
  for (std::size_t symbol : observations) {
    if (symbol >= model.num_symbols()) {
      throw std::out_of_range("forward_scaled: observation id out of range");
    }
  }

  result.alpha = Matrix(t_len, n);
  result.scales.resize(t_len, 0.0);

  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = model.initial[i] * model.emission(i, observations[0]);
    result.alpha(0, i) = v;
    scale += v;
  }
  if (scale <= 0.0) {
    result.impossible = true;
    result.log_likelihood = -std::numeric_limits<double>::infinity();
    return result;
  }
  result.scales[0] = scale;
  for (std::size_t i = 0; i < n; ++i) result.alpha(0, i) /= scale;

  for (std::size_t t = 1; t < t_len; ++t) {
    scale = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        sum += result.alpha(t - 1, i) * model.transition(i, j);
      }
      const double v = sum * model.emission(j, observations[t]);
      result.alpha(t, j) = v;
      scale += v;
    }
    if (scale <= 0.0) {
      result.impossible = true;
      result.log_likelihood = -std::numeric_limits<double>::infinity();
      return result;
    }
    result.scales[t] = scale;
    for (std::size_t j = 0; j < n; ++j) result.alpha(t, j) /= scale;
  }

  double log_lik = 0.0;
  for (double c : result.scales) log_lik += std::log(c);
  result.log_likelihood = log_lik;
  return result;
}

Matrix backward_scaled(const Hmm& model,
                       std::span<const std::size_t> observations,
                       std::span<const double> scales) {
  const std::size_t n = model.num_states();
  const std::size_t t_len = observations.size();
  if (scales.size() != t_len) {
    throw std::invalid_argument("backward_scaled: scales size mismatch");
  }
  Matrix beta(t_len, n);
  if (t_len == 0) return beta;

  for (std::size_t i = 0; i < n; ++i) {
    beta(t_len - 1, i) = 1.0 / scales[t_len - 1];
  }
  for (std::size_t t = t_len - 1; t-- > 0;) {
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        sum += model.transition(i, j) *
               model.emission(j, observations[t + 1]) * beta(t + 1, j);
      }
      beta(t, i) = sum / scales[t];
    }
  }
  return beta;
}

std::vector<double> per_symbol_log_contributions(const ForwardResult& result) {
  std::vector<double> contributions(result.scales.size(), 0.0);
  bool dead = false;
  for (std::size_t t = 0; t < result.scales.size(); ++t) {
    if (dead) continue;
    const double c = result.scales[t];
    if (c <= 0.0) {
      // forward_scaled stops at the first zero-probability prefix; that
      // step absorbs the whole -infinity and later steps contribute 0 so
      // the sum still equals log_likelihood.
      contributions[t] = -std::numeric_limits<double>::infinity();
      dead = true;
    } else {
      contributions[t] = std::log(c);
    }
  }
  return contributions;
}

std::vector<std::size_t> per_symbol_argmax_states(const ForwardResult& result) {
  const std::size_t t_len = result.alpha.rows();
  const std::size_t n = result.alpha.cols();
  std::vector<std::size_t> states(t_len, 0);
  for (std::size_t t = 0; t < t_len; ++t) {
    std::size_t best = 0;
    double best_value = n > 0 ? result.alpha(t, 0) : 0.0;
    for (std::size_t i = 1; i < n; ++i) {
      if (result.alpha(t, i) > best_value) {
        best_value = result.alpha(t, i);
        best = i;
      }
    }
    states[t] = best;
  }
  return states;
}

double sequence_log_likelihood(const Hmm& model,
                               std::span<const std::size_t> observations) {
  return forward_scaled(model, observations).log_likelihood;
}

}  // namespace cmarkov::hmm

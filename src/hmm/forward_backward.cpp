#include "src/hmm/forward_backward.hpp"

#include <algorithm>
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

ForwardTables forward_tables(const Hmm& model, const Matrix& emission_t) {
  return {model.initial.data(), model.transition.data(), emission_t.data(),
          model.num_states()};
}

// Starts on a cache-line boundary so that its code layout, and with it
// the cost of its branches, no longer shifts with the size of unrelated
// code linked ahead of it: perfbench `stream` moved ~1.5x between builds
// whose only difference was this function's offset in its 64-byte line
// (ROADMAP.md item 2, *Code placement*).
[[gnu::aligned(64)]] double forward_pass(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    const ForwardOutputs& out) {
  const std::size_t n = tables.num_states;
  const std::size_t t_len = observations.size();
  const auto row = [&](std::size_t t) {
    return out.alpha + (out.keep_rows ? t : (t & 1)) * n;
  };
  double log_lik = 0.0;
  for (std::size_t t = 0; t < t_len; ++t) {
    double* cur = row(t);
    const double* em = tables.emission_t + observations[t] * n;
    double scale = 0.0;
    if (t == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        const double v = tables.initial[i] * em[i];
        cur[i] = v;
        scale += v;
      }
    } else {
      // Sources outer, destinations inner: the inner loop is n independent
      // accumulator lanes the compiler can vectorize (a destination-major
      // dot product is a serial reduction and cannot), yet each cur[j]
      // still receives its terms in ascending-i order, so not one double
      // differs from forward_scaled.
      const double* prev = row(t - 1);
      std::fill(cur, cur + n, 0.0);
      const double* from_i = tables.transition;
      for (std::size_t i = 0; i < n; ++i, from_i += n) {
        const double p = prev[i];
        for (std::size_t j = 0; j < n; ++j) cur[j] += p * from_i[j];
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double v = cur[j] * em[j];
        cur[j] = v;
        scale += v;
      }
    }
    if (scale <= 0.0) {
      if (out.scales != nullptr) {
        std::fill(out.scales + t, out.scales + t_len, 0.0);
      }
      return -std::numeric_limits<double>::infinity();
    }
    log_lik += std::log(scale);
    for (std::size_t j = 0; j < n; ++j) cur[j] /= scale;
    if (out.scales != nullptr) out.scales[t] = scale;
  }
  return log_lik;
}

void backward_pass(const ForwardTables& tables,
                   std::span<const std::size_t> observations,
                   std::span<const double> scales, double* beta) {
  const std::size_t n = tables.num_states;
  const std::size_t t_len = observations.size();
  if (t_len == 0) return;
  double* last = beta + (t_len - 1) * n;
  for (std::size_t i = 0; i < n; ++i) last[i] = 1.0 / scales[t_len - 1];
  for (std::size_t t = t_len - 1; t-- > 0;) {
    const double* em = tables.emission_t + observations[t + 1] * n;
    const double* next = beta + (t + 1) * n;
    const double* from_i = tables.transition;
    for (std::size_t i = 0; i < n; ++i, from_i += n) {
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) sum += from_i[j] * em[j] * next[j];
      beta[t * n + i] = sum / scales[t];
    }
  }
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

double sequence_probability(const Hmm& model,
                            std::span<const std::size_t> observations) {
  const double log_lik = sequence_log_likelihood(model, observations);
  return std::isinf(log_lik) ? 0.0 : std::exp(log_lik);
}

}  // namespace cmarkov::hmm

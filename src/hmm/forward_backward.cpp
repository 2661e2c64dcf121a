#include "src/hmm/forward_backward.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cmarkov::hmm {
namespace {

// Source rows (forward, backward) or time steps (expected transitions)
// taken per pass of the O(N^2) loops below, whose blocked bodies are
// written out for exactly this many.
constexpr std::size_t kBlock = 4;

}  // namespace

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
      // dot product is a serial reduction and cannot). Four source rows
      // share one pass over cur, so each cur[j] is loaded and stored once
      // per four rows, yet it still receives its terms one at a time in
      // ascending-i order: not one double differs from forward_scaled.
      const double* prev = row(t - 1);
      std::fill(cur, cur + n, 0.0);
      const double* from_i = tables.transition;
      std::size_t i = 0;
      for (; i + kBlock <= n; i += kBlock, from_i += kBlock * n) {
        const double p0 = prev[i];
        const double p1 = prev[i + 1];
        const double p2 = prev[i + 2];
        const double p3 = prev[i + 3];
        const double* a0 = from_i;
        const double* a1 = from_i + n;
        const double* a2 = from_i + 2 * n;
        const double* a3 = from_i + 3 * n;
        for (std::size_t j = 0; j < n; ++j) {
          double c = cur[j];
          c += p0 * a0[j];
          c += p1 * a1[j];
          c += p2 * a2[j];
          c += p3 * a3[j];
          cur[j] = c;
        }
      }
      for (; i < n; ++i, from_i += n) {
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
    double* out = beta + t * n;
    const double* from_i = tables.transition;
    // Each beta(t, i) is one serial sum, bound by the latency of its adds;
    // four source rows run as four independent chains over the same j
    // loop. Every chain keeps its own ascending-j order and backward_scaled's
    // (A * B) * beta product, so each row's sum is bit-identical.
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock, from_i += kBlock * n) {
      const double* a0 = from_i;
      const double* a1 = from_i + n;
      const double* a2 = from_i + 2 * n;
      const double* a3 = from_i + 3 * n;
      double s0 = 0.0;
      double s1 = 0.0;
      double s2 = 0.0;
      double s3 = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        s0 += a0[j] * em[j] * next[j];
        s1 += a1[j] * em[j] * next[j];
        s2 += a2[j] * em[j] * next[j];
        s3 += a3[j] * em[j] * next[j];
      }
      out[i] = s0 / scales[t];
      out[i + 1] = s1 / scales[t];
      out[i + 2] = s2 / scales[t];
      out[i + 3] = s3 / scales[t];
    }
    for (; i < n; ++i, from_i += n) {
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) sum += from_i[j] * em[j] * next[j];
      out[i] = sum / scales[t];
    }
  }
}

void accumulate_expected_transitions(const ForwardTables& tables,
                                     std::span<const std::size_t> observations,
                                     const double* alpha, const double* beta,
                                     double* transition_num) {
  const std::size_t n = tables.num_states;
  const std::size_t steps = observations.empty() ? 0 : observations.size() - 1;
  // xi(t, i, j) for one step, skipping a zero alpha(t, i) as the reference
  // E-step does: the fallback for a block that holds one.
  const auto add_step = [&](std::size_t t, std::size_t i, const double* a,
                            double* num) {
    const double x = alpha[t * n + i];
    if (x == 0.0) return;
    const double* e = tables.emission_t + observations[t + 1] * n;
    const double* b = beta + (t + 1) * n;
    for (std::size_t j = 0; j < n; ++j) num[j] += x * a[j] * e[j] * b[j];
  };
  // One row of the counts per source state i, four time steps per pass
  // over it: each num(i, j) is loaded and stored once per four steps, yet
  // it still receives its xi terms one at a time in ascending t, each
  // formed as ((alpha * A) * B) * beta. Cells of different rows never mix,
  // so taking rows outer and steps inner changes no sum.
  for (std::size_t i = 0; i < n; ++i) {
    const double* a = tables.transition + i * n;
    double* num = transition_num + i * n;
    std::size_t t = 0;
    for (; t + kBlock <= steps; t += kBlock) {
      const double x0 = alpha[t * n + i];
      const double x1 = alpha[(t + 1) * n + i];
      const double x2 = alpha[(t + 2) * n + i];
      const double x3 = alpha[(t + 3) * n + i];
      if (x0 == 0.0 || x1 == 0.0 || x2 == 0.0 || x3 == 0.0) {
        for (std::size_t k = 0; k < kBlock; ++k) add_step(t + k, i, a, num);
        continue;
      }
      const double* e0 = tables.emission_t + observations[t + 1] * n;
      const double* e1 = tables.emission_t + observations[t + 2] * n;
      const double* e2 = tables.emission_t + observations[t + 3] * n;
      const double* e3 = tables.emission_t + observations[t + 4] * n;
      const double* b0 = beta + (t + 1) * n;
      const double* b1 = beta + (t + 2) * n;
      const double* b2 = beta + (t + 3) * n;
      const double* b3 = beta + (t + 4) * n;
      for (std::size_t j = 0; j < n; ++j) {
        double c = num[j];
        c += x0 * a[j] * e0[j] * b0[j];
        c += x1 * a[j] * e1[j] * b1[j];
        c += x2 * a[j] * e2[j] * b2[j];
        c += x3 * a[j] * e3[j] * b3[j];
        num[j] = c;
      }
    }
    for (; t < steps; ++t) add_step(t, i, a, num);
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

#include "src/hmm/forward_backward.hpp"

#include <cmath>
#include <limits>

namespace cmarkov::hmm {
namespace {

// Rows of A (forward's sources, backward's destinations) or time steps
// (expected transitions) taken per pass of the O(N^2) loops below, whose
// blocked bodies are written out for exactly this many.
constexpr std::size_t kBlock = 4;

}  // namespace

ForwardTables forward_tables(const Hmm& model, const Matrix& emission_t) {
  return {model.initial.data(), model.transition.data(), emission_t.data(),
          model.num_states()};
}

ForwardTables forward_tables(const Hmm& model, const Matrix& emission_t,
                             const Matrix& transition_t) {
  ForwardTables tables = forward_tables(model, emission_t);
  tables.transition_t = transition_t.data();
  return tables;
}

namespace {

// The one source body of each production pass. Every entry point below is
// this body inlined under its own target, so the baseline and the AVX2
// build run the same statements: every vector lane does the same IEEE
// multiply and add, in the same order, as the scalar code would. With no
// FMA in either target and -ffp-contract=off on this unit, the compiler can
// neither fuse a product into its sum nor reassociate one; the two builds
// differ only in vector width.

[[gnu::always_inline]] inline double forward_body(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    const ForwardOutputs& out) {
  const std::size_t n = tables.num_states;
  const std::size_t t_len = observations.size();
  const std::size_t row_mask = out.keep_rows ? ~std::size_t{0} : 1;
  double log_lik = 0.0;
  for (std::size_t t = 0; t < t_len; ++t) {
    double* cur = out.alpha + (t & row_mask) * n;
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
      const double* prev = out.alpha + ((t - 1) & row_mask) * n;
      for (std::size_t j = 0; j < n; ++j) cur[j] = 0.0;
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
        for (std::size_t u = t; u < t_len; ++u) out.scales[u] = 0.0;
      }
      return -std::numeric_limits<double>::infinity();
    }
    log_lik += std::log(scale);
    for (std::size_t j = 0; j < n; ++j) cur[j] /= scale;
    if (out.scales != nullptr) out.scales[t] = scale;
  }
  return log_lik;
}

[[gnu::always_inline]] inline void backward_body(
    const ForwardTables& tables, std::span<const std::size_t> observations,
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
    // Destinations outer, sources inner, over A^T: row j of transition_t
    // holds A(*, j), so the inner loop is n independent sums out[i] the
    // compiler can vectorize. Four destinations share one pass over out,
    // and each out[i] still receives backward_scaled's
    // (A(i, j) * B(j, o)) * beta(t+1, j) terms one at a time in ascending
    // j: every row is bit-identical to it.
    for (std::size_t i = 0; i < n; ++i) out[i] = 0.0;
    const double* to_j = tables.transition_t;
    std::size_t j = 0;
    for (; j + kBlock <= n; j += kBlock, to_j += kBlock * n) {
      const double e0 = em[j];
      const double e1 = em[j + 1];
      const double e2 = em[j + 2];
      const double e3 = em[j + 3];
      const double b0 = next[j];
      const double b1 = next[j + 1];
      const double b2 = next[j + 2];
      const double b3 = next[j + 3];
      const double* a0 = to_j;
      const double* a1 = to_j + n;
      const double* a2 = to_j + 2 * n;
      const double* a3 = to_j + 3 * n;
      for (std::size_t i = 0; i < n; ++i) {
        double c = out[i];
        c += a0[i] * e0 * b0;
        c += a1[i] * e1 * b1;
        c += a2[i] * e2 * b2;
        c += a3[i] * e3 * b3;
        out[i] = c;
      }
    }
    for (; j < n; ++j, to_j += n) {
      const double e = em[j];
      const double b = next[j];
      for (std::size_t i = 0; i < n; ++i) out[i] += to_j[i] * e * b;
    }
    const double scale = scales[t];
    for (std::size_t i = 0; i < n; ++i) out[i] /= scale;
  }
}

// xi(t, i, j) for one step, skipping a zero alpha(t, i) as the reference
// E-step does: the fallback for a block that holds one.
[[gnu::always_inline]] inline void add_expected_step(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    const double* alpha, const double* beta, std::size_t t, std::size_t i,
    const double* a, double* num) {
  const std::size_t n = tables.num_states;
  const double x = alpha[t * n + i];
  if (x == 0.0) return;
  const double* e = tables.emission_t + observations[t + 1] * n;
  const double* b = beta + (t + 1) * n;
  for (std::size_t j = 0; j < n; ++j) num[j] += x * a[j] * e[j] * b[j];
}

[[gnu::always_inline]] inline void expected_transitions_body(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    const double* alpha, const double* beta, double* transition_num) {
  const std::size_t n = tables.num_states;
  const std::size_t steps = observations.empty() ? 0 : observations.size() - 1;
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
        for (std::size_t k = 0; k < kBlock; ++k) {
          add_expected_step(tables, observations, alpha, beta, t + k, i, a,
                            num);
        }
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
    for (; t < steps; ++t) {
      add_expected_step(tables, observations, alpha, beta, t, i, a, num);
    }
  }
}

// The entry points. Each starts on a cache-line boundary so that its code
// layout, and with it the cost of its branches, no longer shifts with the
// size of unrelated code linked ahead of it: perfbench `stream` moved ~1.5x
// between builds whose only difference was forward_pass's offset in its
// 64-byte line (ROADMAP.md item 2, *Code placement*).

[[gnu::aligned(64)]] double forward_baseline(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    const ForwardOutputs& out) {
  return forward_body(tables, observations, out);
}

[[gnu::aligned(64)]] void backward_baseline(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    std::span<const double> scales, double* beta) {
  backward_body(tables, observations, scales, beta);
}

[[gnu::aligned(64)]] void expected_transitions_baseline(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    const double* alpha, const double* beta, double* transition_num) {
  expected_transitions_body(tables, observations, alpha, beta,
                            transition_num);
}

constexpr PassBuild kBaseline = {forward_baseline, backward_baseline,
                                 expected_transitions_baseline};

#if defined(__x86_64__)
// AVX2 only: no "fma", "avx512*" or "arch=" here (ctest check_fp_contract),
// since a fused multiply-add rounds once where the reference rounds twice.
[[gnu::aligned(64), gnu::target("avx2")]] double forward_avx2(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    const ForwardOutputs& out) {
  return forward_body(tables, observations, out);
}

[[gnu::aligned(64), gnu::target("avx2")]] void backward_avx2(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    std::span<const double> scales, double* beta) {
  backward_body(tables, observations, scales, beta);
}

[[gnu::aligned(64), gnu::target("avx2")]] void expected_transitions_avx2(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    const double* alpha, const double* beta, double* transition_num) {
  expected_transitions_body(tables, observations, alpha, beta,
                            transition_num);
}

constexpr PassBuild kAvx2 = {forward_avx2, backward_avx2,
                             expected_transitions_avx2};

const PassBuild* detect_avx2() {
  __builtin_cpu_init();  // may run before the constructors that call it
  return __builtin_cpu_supports("avx2") ? &kAvx2 : nullptr;
}
#else
const PassBuild* detect_avx2() { return nullptr; }
#endif

// Chosen once per process. Until this unit's dynamic initializer has run,
// the pointer reads null, so a pass called from an earlier static
// initializer takes the baseline build: the same bits either way.
const PassBuild* const kAvx2Build = detect_avx2();

const PassBuild& chosen_build() {
  return kAvx2Build != nullptr ? *kAvx2Build : kBaseline;
}

}  // namespace

const PassBuild& baseline_passes() { return kBaseline; }

const PassBuild* avx2_passes() { return kAvx2Build; }

[[gnu::aligned(64)]] double forward_pass(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    const ForwardOutputs& out) {
  return chosen_build().forward_pass(tables, observations, out);
}

[[gnu::aligned(64)]] void backward_pass(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    std::span<const double> scales, double* beta) {
  chosen_build().backward_pass(tables, observations, scales, beta);
}

[[gnu::aligned(64)]] void accumulate_expected_transitions(
    const ForwardTables& tables, std::span<const std::size_t> observations,
    const double* alpha, const double* beta, double* transition_num) {
  chosen_build().accumulate_expected_transitions(tables, observations, alpha,
                                                 beta, transition_num);
}

}  // namespace cmarkov::hmm

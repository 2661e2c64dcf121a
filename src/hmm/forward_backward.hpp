// The production scaled forward/backward passes. Scaling (Rabiner's c_t
// normalization) keeps 15-call segment likelihoods representable;
// log-likelihood is recovered as -sum(log c_t). A segment containing a
// symbol the model gives zero probability scores -infinity (the
// "impossible" verdict that drives the paper's detection of
// out-of-alphabet / out-of-context calls).
#pragma once

#include <span>

#include "src/hmm/hmm.hpp"

namespace cmarkov::hmm {

// The reference recursions the tests hold these passes to, forward_scaled
// and backward_scaled, live in forward_reference.hpp and the cmarkov_oracle
// library, which no shipped binary links. Production scores through
// forward_pass / backward_pass / accumulate_expected_transitions below: the
// Trainer's E-step and holdout scoring, threshold calibration, and the
// serve tier's ScoringKernel, which compiles the same tables into its
// arena. They produce the oracle's doubles bit for bit: every O(N^2) loop
// is register-blocked four rows (or steps) per pass without reordering any
// floating-point sum. Each is compiled twice from one body, a baseline and
// an AVX2 build (PassBuild below), and runs the AVX2 build when the CPU has
// it; the choice is made once per process and changes no bit.

/// The parameter arrays the production passes read:
///   - initial    : pi, N doubles;
///   - transition : A source-major, A(i, j) at [i*N + j] (Matrix's own
///                  row-major layout), so the forward step iterates sources
///                  outer / destinations inner and streams one contiguous
///                  row into N independent accumulators;
///   - emission_t : B^T, B(j, k) at [k*N + j], so the observed symbol's
///                  emission column is one contiguous row;
///   - transition_t : A^T, A(i, j) at [j*N + i], read by backward_pass only
///                  (which iterates destinations outer / sources inner);
///                  null in tables that never run a backward pass, such as
///                  the ScoringKernel's.
struct ForwardTables {
  const double* initial = nullptr;
  const double* transition = nullptr;
  const double* emission_t = nullptr;
  std::size_t num_states = 0;
  const double* transition_t = nullptr;
};

/// Tables over `model`'s own pi and A plus a caller-held B^T, which must be
/// model.emission.transposed() and outlive the view. No A^T: enough for
/// forward_pass and accumulate_expected_transitions.
ForwardTables forward_tables(const Hmm& model, const Matrix& emission_t);

/// The same plus a caller-held A^T (model.transition.transposed(), which
/// must outlive the view), as backward_pass needs.
ForwardTables forward_tables(const Hmm& model, const Matrix& emission_t,
                             const Matrix& transition_t);

/// Where forward_pass writes.
struct ForwardOutputs {
  /// keep_rows: T*N doubles, normalized row t at alpha + t*N (what the
  /// backward pass and the E-step's xi need). Otherwise 2*N doubles the
  /// pass ping-pongs between (scoring only).
  double* alpha = nullptr;
  bool keep_rows = false;
  /// Optional, T entries: the per-step scale c_t. Steps at and after an
  /// impossible prefix read 0, as per_symbol_log_contributions expects.
  double* scales = nullptr;
};

/// The production scaled forward recursion. Returns log P(observations |
/// model) as the step-order sum of log c_t: 0 for an empty sequence,
/// -infinity when some prefix has zero probability. Observations are not
/// range-checked; callers pass ids < num_symbols. Each step takes four
/// source rows per pass over the alpha row, yet every alpha cell still adds
/// its predecessor terms one at a time in ascending source order, exactly
/// like forward_scaled's per-destination sum, so rows, scales and
/// likelihood are bit-identical to it.
double forward_pass(const ForwardTables& tables,
                    std::span<const std::size_t> observations,
                    const ForwardOutputs& out);

/// Backward pass over the same tables (transition_t required) and the
/// forward scales: writes beta(t, i) at beta[t*N + i] (T*N doubles);
/// bit-identical to backward_scaled. Must not be called for impossible
/// sequences. Destinations j run outer, four per pass over the beta row,
/// and the sources i inner over A^T's row j, so each beta(t, i) still gets
/// backward_scaled's (A * B) * beta terms one at a time in ascending j.
void backward_pass(const ForwardTables& tables,
                   std::span<const std::size_t> observations,
                   std::span<const double> scales, double* beta);

/// The E-step's expected transition counts of one sequence: adds
///   xi(t, i, j) = ((alpha(t, i) * A(i, j)) * B(j, o[t+1])) * beta(t+1, j)
/// to transition_num[i*N + j] (N*N doubles) for t = 0 .. T-2, skipping
/// every (t, i) whose alpha(t, i) is exactly zero. alpha and beta are
/// forward_pass's kept rows and backward_pass's output (scaled, so the
/// normalizer is 1). Each cell receives its terms one at a time in
/// ascending t, four steps per pass over a row, so the counts are
/// bit-identical to the naive t / i / j triple loop.
void accumulate_expected_transitions(const ForwardTables& tables,
                                     std::span<const std::size_t> observations,
                                     const double* alpha, const double* beta,
                                     double* transition_num);

/// One compiled build of the three passes above. Both builds compile the
/// same source body and produce the same bits: the AVX2 build only widens
/// the vector lanes, each of which does the same IEEE multiply and add as
/// the baseline, with no FMA and no reassociation (forward_backward.cpp).
/// forward_pass, backward_pass and accumulate_expected_transitions run
/// avx2_passes() when it is non-null and baseline_passes() otherwise.
struct PassBuild {
  double (*forward_pass)(const ForwardTables&, std::span<const std::size_t>,
                         const ForwardOutputs&);
  void (*backward_pass)(const ForwardTables&, std::span<const std::size_t>,
                        std::span<const double>, double*);
  void (*accumulate_expected_transitions)(const ForwardTables&,
                                          std::span<const std::size_t>,
                                          const double*, const double*,
                                          double*);
};

/// The baseline build: x86-64's SSE2, or the target's own ISA elsewhere.
const PassBuild& baseline_passes();

/// The AVX2 build (no FMA), or null when the CPU lacks AVX2 or the target
/// is not x86-64, where only the baseline is compiled.
const PassBuild* avx2_passes();

}  // namespace cmarkov::hmm

// The reference forward/backward recursions: the textbook scaled
// (Rabiner c_t) forward and backward passes over the model's own matrices,
// one T x N alpha matrix per call. They are the oracle the tests hold the
// production passes of forward_backward.hpp to, bit for bit, and they are
// built into the cmarkov_oracle library only: tests, benches and examples
// link it, the shipped cmarkov and cmarkovd binaries do not (ctest
// check_shipped_symbols), so a production caller fails to link.
#pragma once

#include <span>
#include <vector>

#include "src/hmm/hmm.hpp"

namespace cmarkov::hmm {

struct ForwardResult {
  /// alpha(t, i): scaled probability of being in state i after t+1 symbols.
  Matrix alpha;
  /// Scale factors c_t; empty iff the sequence was empty.
  std::vector<double> scales;
  /// log P(observations | model); -infinity when impossible.
  double log_likelihood = 0.0;
  /// True when some prefix had zero total probability.
  bool impossible = false;
};

/// Forward pass. Observations must be valid alphabet ids (< num_symbols).
ForwardResult forward_scaled(const Hmm& model,
                             std::span<const std::size_t> observations);

/// Backward pass reusing the forward scale factors. Returns beta(t, i).
/// Must not be called for impossible sequences.
Matrix backward_scaled(const Hmm& model,
                       std::span<const std::size_t> observations,
                       std::span<const double> scales);

/// Additive per-symbol decomposition of the log-likelihood: entry t is
/// log(c_t), the log-probability of symbol t given the (scaled) state
/// distribution after t symbols, and the entries sum to
/// `result.log_likelihood` exactly (same values, same summation order).
/// For impossible sequences the first zero-scale step contributes
/// -infinity and every later step 0 — the sum is still -infinity.
std::vector<double> per_symbol_log_contributions(const ForwardResult& result);

/// Most likely hidden state after each symbol: argmax over the scaled
/// alpha row (ties break to the lowest state id). For impossible
/// sequences, steps at and after the zero-scale point report state 0.
std::vector<std::size_t> per_symbol_argmax_states(const ForwardResult& result);

/// Convenience: log P(observations | model), -infinity when impossible.
double sequence_log_likelihood(const Hmm& model,
                               std::span<const std::size_t> observations);

}  // namespace cmarkov::hmm

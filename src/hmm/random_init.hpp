// Random HMM initialization — the construction of the paper's baselines
// (Regular-basic and Regular-context): hidden-state count equals the number
// of distinct observed calls, parameters drawn randomly and row-normalized.
#pragma once

#include "src/hmm/hmm.hpp"
#include "src/util/rng.hpp"

namespace cmarkov::hmm {

/// A random valid HMM with `num_states` states over `num_symbols` symbols.
/// Rows are drawn as uniform(0.05, 1) then normalized; the positive floor
/// keeps every parameter strictly positive.
Hmm randomly_initialized_hmm(std::size_t num_states, std::size_t num_symbols,
                             Rng& rng);

}  // namespace cmarkov::hmm

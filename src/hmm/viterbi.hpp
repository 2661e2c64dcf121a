// Viterbi decoding: the most likely hidden-state path for an observation
// sequence, in log space. Built into the cmarkov_oracle library, which
// tests and benches link and the shipped binaries do not.
#pragma once

#include <span>
#include <vector>

#include "src/hmm/hmm.hpp"

namespace cmarkov::hmm {

struct ViterbiResult {
  /// Most likely state sequence (empty for an empty observation sequence).
  std::vector<std::size_t> path;
  /// log P(path, observations | model); -infinity when impossible.
  double log_probability = 0.0;
};

ViterbiResult viterbi_decode(const Hmm& model,
                             std::span<const std::size_t> observations);

}  // namespace cmarkov::hmm

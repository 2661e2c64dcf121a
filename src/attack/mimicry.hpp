// Mimicry-attack probe (Section II-A): the attack model the paper
// explicitly discusses. A mimicry attacker must embed a malicious goal
// sequence (e.g. open a socket, dup descriptors, execve) inside a segment
// while keeping the segment's likelihood above the detection threshold,
// using only observations the model knows. craft_mimicry runs a beam
// search for the attacker's best padding — an upper-bound estimate of
// mimicry headroom under a given model. Comparing that headroom across
// models quantifies the paper's claim that probabilistic scoring plus
// context sensitivity makes effective mimicries hard to build.
#pragma once

#include <string>
#include <vector>

#include "src/eval/model_zoo.hpp"

namespace cmarkov::attack {

struct MimicryOptions {
  std::size_t segment_length = 15;
  /// Beam width of the search.
  std::size_t beam_width = 16;
};

struct MimicryResult {
  /// Best segment found (alphabet ids of the target model).
  hmm::ObservationSeq segment;
  /// Its log-likelihood under the model (-infinity if no embedding was
  /// possible, e.g. a goal observation is outside the model's alphabet).
  double log_likelihood = 0.0;
  /// True when every goal observation was embedded in order.
  bool goal_embedded = false;
  /// Goal observations missing from the model's alphabet (these make the
  /// attack impossible without tripping the unknown-symbol detector).
  std::vector<std::string> unknown_goals;
};

/// Finds the attacker's best segment embedding `goal_observations` (strings
/// under the model's encoding, e.g. "execve@spawn_child" for context
/// models, "execve" for basic ones) in order.
MimicryResult craft_mimicry(const eval::BuiltModel& model,
                            const std::vector<std::string>& goal_observations,
                            const MimicryOptions& options = {});

}  // namespace cmarkov::attack

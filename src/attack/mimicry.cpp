#include "src/attack/mimicry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cmarkov::attack {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

struct BeamState {
  hmm::ObservationSeq sequence;
  std::vector<double> alpha;  // scaled forward vector
  double log_likelihood = 0.0;
  std::size_t goals_done = 0;
};

/// Predictive distribution over next states: trans_j = sum_i alpha_i A_ij.
std::vector<double> predict_states(const hmm::Hmm& model,
                                   const std::vector<double>& alpha) {
  const std::size_t n = model.num_states();
  std::vector<double> trans(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = alpha[i];
    if (a == 0.0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      trans[j] += a * model.transition(i, j);
    }
  }
  return trans;
}

/// Extends a state with observation `obs`; returns false if impossible.
bool advance(const hmm::Hmm& model, BeamState& state, std::size_t obs,
             bool is_goal) {
  const std::size_t n = model.num_states();
  std::vector<double> next(n, 0.0);
  double scale = 0.0;
  if (state.sequence.empty()) {
    for (std::size_t j = 0; j < n; ++j) {
      next[j] = model.initial[j] * model.emission(j, obs);
      scale += next[j];
    }
  } else {
    const std::vector<double> trans = predict_states(model, state.alpha);
    for (std::size_t j = 0; j < n; ++j) {
      next[j] = trans[j] * model.emission(j, obs);
      scale += next[j];
    }
  }
  if (scale <= 0.0) return false;
  for (double& v : next) v /= scale;
  state.alpha = std::move(next);
  state.log_likelihood += std::log(scale);
  state.sequence.push_back(obs);
  if (is_goal) state.goals_done += 1;
  return true;
}

/// Most probable next observations under the state's predictive
/// distribution.
std::vector<std::size_t> padding_candidates(const hmm::Hmm& model,
                                            const BeamState& state,
                                            std::size_t count) {
  const std::size_t m = model.num_symbols();
  std::vector<double> weight(m, 0.0);
  if (state.sequence.empty()) {
    for (std::size_t j = 0; j < model.num_states(); ++j) {
      for (std::size_t o = 0; o < m; ++o) {
        weight[o] += model.initial[j] * model.emission(j, o);
      }
    }
  } else {
    const std::vector<double> trans = predict_states(model, state.alpha);
    for (std::size_t j = 0; j < model.num_states(); ++j) {
      if (trans[j] == 0.0) continue;
      for (std::size_t o = 0; o < m; ++o) {
        weight[o] += trans[j] * model.emission(j, o);
      }
    }
  }
  std::vector<std::size_t> order(m);
  for (std::size_t o = 0; o < m; ++o) order[o] = o;
  const std::size_t keep = std::min(count, m);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return weight[a] > weight[b];
                    });
  order.resize(keep);
  return order;
}

}  // namespace

MimicryResult craft_mimicry(const eval::BuiltModel& model,
                            const std::vector<std::string>& goal_observations,
                            const MimicryOptions& options) {
  MimicryResult result;
  result.log_likelihood = kNegInf;

  // Resolve goal observations; out-of-alphabet goals defeat the attack.
  std::vector<std::size_t> goals;
  for (const auto& name : goal_observations) {
    const auto id = model.alphabet.find(name);
    if (!id.has_value()) {
      result.unknown_goals.push_back(name);
    } else {
      goals.push_back(*id);
    }
  }
  if (!result.unknown_goals.empty()) return result;
  if (goals.size() > options.segment_length) return result;

  std::vector<BeamState> beam(1);
  for (std::size_t t = 0; t < options.segment_length; ++t) {
    std::vector<BeamState> next_beam;
    const std::size_t remaining_slots = options.segment_length - t;
    for (const BeamState& state : beam) {
      const std::size_t remaining_goals = goals.size() - state.goals_done;
      const bool must_emit_goal = remaining_goals >= remaining_slots;
      // Option A: emit the next goal observation now.
      if (remaining_goals > 0) {
        BeamState extended = state;
        if (advance(model.hmm(), extended, goals[state.goals_done], true)) {
          next_beam.push_back(std::move(extended));
        }
      }
      // Option B: padding, if the schedule still allows it.
      if (!must_emit_goal) {
        for (std::size_t obs : padding_candidates(
                 model.hmm(), state, options.candidates_per_step)) {
          BeamState extended = state;
          if (advance(model.hmm(), extended, obs, false)) {
            next_beam.push_back(std::move(extended));
          }
        }
      }
    }
    if (next_beam.empty()) return result;  // attack cannot proceed
    std::sort(next_beam.begin(), next_beam.end(),
              [](const BeamState& a, const BeamState& b) {
                if (a.goals_done != b.goals_done) {
                  return a.goals_done > b.goals_done;
                }
                return a.log_likelihood > b.log_likelihood;
              });
    if (next_beam.size() > options.beam_width) {
      next_beam.resize(options.beam_width);
    }
    beam = std::move(next_beam);
  }

  for (const BeamState& state : beam) {
    if (state.goals_done == goals.size() &&
        state.log_likelihood > result.log_likelihood) {
      result.segment = state.sequence;
      result.log_likelihood = state.log_likelihood;
      result.goal_embedded = true;
    }
  }
  return result;
}

}  // namespace cmarkov::attack

#include "src/hmm/static_init.hpp"

#include <stdexcept>

namespace cmarkov::hmm {

namespace {

/// Smoothing mixed into every row after construction.
constexpr double kSmoothing = 1e-4;

}  // namespace

StaticInitResult statically_initialized_hmm(
    const reduction::ReducedModel& reduced, ObservationEncoding encoding,
    Alphabet& alphabet) {
  const std::size_t n = reduced.num_states();
  if (n == 0) {
    throw std::invalid_argument(
        "statically_initialized_hmm: model has no states (program makes no "
        "observable calls)");
  }

  StaticInitResult result;
  result.state_members = reduced.members;

  // Intern member observations first so ids exist before sizing B.
  std::vector<std::vector<std::size_t>> member_obs(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (const auto& sym : reduced.members[s]) {
      member_obs[s].push_back(alphabet.intern(encode_observation(sym, encoding)));
    }
    if (reduced.members[s].size() == 1) {
      result.state_labels.push_back(
          encode_observation(reduced.members[s][0], encoding));
    } else {
      std::string label = "cluster{";
      for (std::size_t i = 0; i < reduced.members[s].size(); ++i) {
        if (i > 0) label += ",";
        if (i == 3 && reduced.members[s].size() > 4) {
          label += "+" + std::to_string(reduced.members[s].size() - 3);
          break;
        }
        label += encode_observation(reduced.members[s][i], encoding);
      }
      label += "}";
      result.state_labels.push_back(std::move(label));
    }
  }

  const std::size_t m = alphabet.size();
  Hmm& model = result.model;
  model.transition = Matrix(n, n);
  model.emission = Matrix(n, m);
  model.initial.assign(n, 0.0);

  // A: inter-cluster transition mass, row-normalized. Mass to program EXIT
  // has no successor state; folding it back into the row via normalization
  // matches the HMM's lack of a terminal state.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      model.transition(i, j) = reduced.transitions(i, j);
    }
  }
  model.transition.normalize_rows();

  // B: member observation weights.
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t i = 0; i < member_obs[s].size(); ++i) {
      model.emission(s, member_obs[s][i]) += reduced.member_weights[s][i];
    }
  }
  model.emission.normalize_rows();

  // pi: program-entry mass.
  double entry_total = 0.0;
  for (std::size_t s = 0; s < n; ++s) entry_total += reduced.entry_mass[s];
  if (entry_total > 0.0) {
    for (std::size_t s = 0; s < n; ++s) {
      model.initial[s] = reduced.entry_mass[s] / entry_total;
    }
  } else {
    // Entry makes no direct call (e.g. fully silent entry path): start
    // uniform; training sharpens it. Detection still constrains order via A.
    const double uniform = 1.0 / static_cast<double>(n);
    for (double& v : model.initial) v = uniform;
  }

  model.smooth(kSmoothing);
  model.validate();
  return result;
}

}  // namespace cmarkov::hmm

#include "src/hmm/random_init.hpp"

#include <stdexcept>

namespace cmarkov::hmm {

namespace {

/// Floor of every drawn weight before normalization.
constexpr double kMinWeight = 0.05;

void fill_random_stochastic_row(std::span<double> row, Rng& rng) {
  double total = 0.0;
  for (double& v : row) {
    v = rng.uniform(kMinWeight, 1.0);
    total += v;
  }
  for (double& v : row) v /= total;
}

}  // namespace

Hmm randomly_initialized_hmm(std::size_t num_states, std::size_t num_symbols,
                             Rng& rng) {
  if (num_states == 0 || num_symbols == 0) {
    throw std::invalid_argument(
        "randomly_initialized_hmm: need at least one state and symbol");
  }
  Hmm model;
  model.transition = Matrix(num_states, num_states);
  model.emission = Matrix(num_states, num_symbols);
  model.initial.resize(num_states);
  for (std::size_t i = 0; i < num_states; ++i) {
    fill_random_stochastic_row(model.transition.row(i), rng);
    fill_random_stochastic_row(model.emission.row(i), rng);
  }
  fill_random_stochastic_row(model.initial, rng);
  model.validate();
  return model;
}

}  // namespace cmarkov::hmm

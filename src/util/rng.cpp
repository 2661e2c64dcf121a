#include "src/util/rng.hpp"

#include <numeric>

namespace cmarkov {

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::gaussian(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (weights.empty() || total <= 0.0) {
    throw std::invalid_argument("Rng::weighted_index: no positive weight");
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical slack: land on the last bucket
}

Rng Rng::fork() {
  const std::uint64_t child_seed =
      engine_() ^ 0x9e3779b97f4a7c15ULL;  // golden-ratio mix decorrelates
  return Rng(child_seed);
}

}  // namespace cmarkov

// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in the library (workload generation, random HMM
// initialization, K-means seeding, attack synthesis) draws from an explicit
// Rng instance instead of global state, so a fixed seed reproduces an entire
// experiment bit-for-bit.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace cmarkov {

/// Deterministic random source. Thin wrapper over std::mt19937_64 with the
/// distribution helpers the library needs. Copyable (copying forks the
/// stream state).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform real in [0, 1).
  double uniform();

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p in [0, 1].
  bool chance(double p);

  /// Standard normal draw scaled to mean/stddev.
  double gaussian(double mean = 0.0, double stddev = 1.0);

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Throws std::invalid_argument if all weights are zero or the span is
  /// empty.
  std::size_t weighted_index(std::span<const double> weights);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[index(i)]);
    }
  }

  /// Picks one element uniformly. Requires non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    if (items.empty()) throw std::invalid_argument("Rng::pick: empty vector");
    return items[index(items.size())];
  }

  /// Derives an independent child stream; used to give each test case or
  /// fold its own substream so reordering experiments does not perturb
  /// unrelated draws.
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace cmarkov

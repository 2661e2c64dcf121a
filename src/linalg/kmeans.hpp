// K-means clustering (Lloyd's algorithm with k-means++ seeding).
// Used to merge similar context-sensitive calls before HMM state
// initialization (Section III-C, Algorithm 1).
#pragma once

#include <cstddef>
#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/util/exec_context.hpp"
#include "src/util/rng.hpp"

namespace cmarkov {

struct KMeansOptions {
  /// Lloyd's iterations per restart; a run stops earlier once no
  /// assignment changes (or the centroids all but stop moving).
  std::size_t max_iterations = 100;
  /// Independent restarts; the run with lowest inertia wins.
  std::size_t restarts = 3;
  /// Execution context: exec.threads drives the assignment/seeding distance
  /// sweeps (0 = one per hardware core). Results are identical at any
  /// value: per-sample work is independent and reductions merge fixed-size
  /// chunks in index order. (The RNG stays an explicit kmeans() parameter.)
  ExecContext exec;
};

struct KMeansResult {
  /// assignment[i] = cluster id of sample i, in [0, k).
  std::vector<std::size_t> assignment;
  /// k x dim centroid matrix.
  Matrix centroids;
  /// Sum of squared distances of samples to their centroid.
  double inertia = 0.0;
  std::size_t iterations = 0;
};

/// Clusters the rows of `samples` into k groups. Requires 1 <= k <=
/// samples.rows(). Every cluster is guaranteed non-empty (empty clusters are
/// re-seeded with the farthest sample).
KMeansResult kmeans(const Matrix& samples, std::size_t k, Rng& rng,
                    const KMeansOptions& options = {});

}  // namespace cmarkov

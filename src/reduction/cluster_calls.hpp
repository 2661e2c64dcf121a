// Clustering-based hidden-state reduction (Section III-C, Algorithm 1):
// PCA over call-transition vectors, then K-means, merging calls with similar
// incoming/outgoing transition behaviour into one hidden state.
#pragma once

#include <cstddef>
#include <vector>

#include "src/analysis/context.hpp"
#include "src/linalg/kmeans.hpp"
#include "src/linalg/pca.hpp"
#include "src/reduction/call_vector.hpp"
#include "src/util/rng.hpp"

namespace cmarkov::reduction {

struct ClusteringOptions {
  /// Target number of clusters; 0 derives it from `target_fraction`.
  std::size_t k = 0;
  /// Paper choice: the clustered model has 1/3 to 1/2 of the original
  /// states; the prototype uses 1/3.
  double target_fraction = 1.0 / 3.0;
  /// Apply clustering only when the call count exceeds this (the paper
  /// reduces models with > 800 states). Set to 0 to always cluster.
  std::size_t min_calls_for_reduction = 800;
  /// Skip the PCA step (ablation).
  bool use_pca = true;
  /// Execution context for PCA and k-means; authoritative — it replaces
  /// pca.exec / kmeans.exec. Clustering results are identical at any
  /// thread count.
  ExecContext exec;
  PcaOptions pca;
  KMeansOptions kmeans;
};

struct CallClustering {
  /// External symbols that were clustered, in feature-row order.
  std::vector<analysis::CallSymbol> calls;
  /// assignment[i] = cluster of calls[i].
  std::vector<std::size_t> assignment;
  /// Members per cluster (indices into `calls`).
  std::vector<std::vector<std::size_t>> clusters;
  /// True when reduction was skipped (each call its own cluster).
  bool reduced = false;
  /// PCA output dimensionality (0 when PCA skipped).
  std::size_t pca_dimensions = 0;
};

/// Clusters the external calls of an aggregated matrix. When the model is
/// below the reduction threshold (or k >= #calls) every call becomes a
/// singleton cluster, which downstream code treats as the unreduced model.
CallClustering cluster_calls(const analysis::CallTransitionMatrix& matrix,
                             Rng& rng, const ClusteringOptions& options = {});

/// Singleton clustering (the unreduced model), for the clustered/unclustered
/// comparisons of Table II.
CallClustering identity_clustering(
    const analysis::CallTransitionMatrix& matrix);

}  // namespace cmarkov::reduction

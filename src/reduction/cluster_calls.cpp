#include "src/reduction/cluster_calls.hpp"

#include <algorithm>

#include "src/obs/metrics_registry.hpp"
#include "src/obs/run_profile.hpp"

namespace cmarkov::reduction {

namespace {

CallClustering singleton_clustering(CallVectors vectors) {
  CallClustering out;
  out.calls = std::move(vectors.calls);
  out.assignment.resize(out.calls.size());
  out.clusters.resize(out.calls.size());
  for (std::size_t i = 0; i < out.calls.size(); ++i) {
    out.assignment[i] = i;
    out.clusters[i] = {i};
  }
  out.reduced = false;
  return out;
}

}  // namespace

CallClustering identity_clustering(
    const analysis::CallTransitionMatrix& matrix) {
  return singleton_clustering(build_call_vectors(matrix));
}

CallClustering cluster_calls(const analysis::CallTransitionMatrix& matrix,
                             Rng& rng, const ClusteringOptions& options) {
  CallVectors vectors = build_call_vectors(matrix);
  const std::size_t n = vectors.calls.size();

  std::size_t k = options.k;
  if (k == 0) {
    k = static_cast<std::size_t>(
        static_cast<double>(n) * options.target_fraction);
  }
  k = std::clamp<std::size_t>(k, 1, n == 0 ? 1 : n);

  if (n == 0 || n <= options.min_calls_for_reduction || k >= n) {
    return singleton_clustering(std::move(vectors));
  }

  CallClustering out;
  out.calls = std::move(vectors.calls);

  obs::RunProfile* profile = options.exec.profile;

  Matrix features = std::move(vectors.features);
  if (options.use_pca && features.rows() >= 2) {
    PcaOptions pca_options = options.pca;
    pca_options.exec = options.exec;
    Pca pca;
    {
      const obs::ScopedTimer timer(profile, "pca-fit");
      pca = Pca::fit(features, pca_options);
    }
    {
      const obs::ScopedTimer timer(profile, "pca-transform");
      features = pca.transform(features, options.exec.threads);
    }
    out.pca_dimensions = features.cols();
  }

  // Paper-scale inputs (the N > 800 regime this reduction exists for) make
  // multi-restart 100-iteration Lloyd's a multi-second affair; cap the
  // search there — with PCA'd features the first run converges quickly.
  KMeansOptions kmeans_options = options.kmeans;
  kmeans_options.exec = options.exec;
  if (n > 500) {
    kmeans_options.restarts = 1;
    kmeans_options.max_iterations =
        std::min<std::size_t>(kmeans_options.max_iterations, 35);
  }
  KMeansResult result;
  {
    const obs::ScopedTimer timer(profile, "kmeans");
    result = kmeans(features, k, rng, kmeans_options);
  }
  out.assignment = result.assignment;
  out.clusters.resize(k);
  for (std::size_t i = 0; i < out.assignment.size(); ++i) {
    out.clusters[out.assignment[i]].push_back(i);
  }
  // Drop empty clusters (kmeans guarantees non-empty, but keep this robust
  // to future clustering backends) and compact ids.
  std::vector<std::vector<std::size_t>> compact;
  std::vector<std::size_t> new_id(k, 0);
  for (std::size_t c = 0; c < k; ++c) {
    if (out.clusters[c].empty()) continue;
    new_id[c] = compact.size();
    compact.push_back(std::move(out.clusters[c]));
  }
  for (auto& a : out.assignment) a = new_id[a];
  out.clusters = std::move(compact);
  out.reduced = true;
  if (options.exec.metrics != nullptr) {
    auto& m = *options.exec.metrics;
    m.counter("cmarkov_reduce_runs_total").add(1);
    m.gauge("cmarkov_reduce_input_calls").set(static_cast<double>(n));
    m.gauge("cmarkov_reduce_clusters")
        .set(static_cast<double>(out.clusters.size()));
  }
  return out;
}

}  // namespace cmarkov::reduction

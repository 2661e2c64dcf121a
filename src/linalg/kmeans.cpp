#include "src/linalg/kmeans.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "src/obs/metrics_registry.hpp"
#include "src/util/parallel.hpp"

namespace cmarkov {

namespace {

/// Samples per parallel work item. Fixed (thread-count-independent) so the
/// inertia reduction merges the same chunk partials in the same order no
/// matter how many workers run.
constexpr std::size_t kSampleChunk = 64;

/// Lloyd's iterations also stop when total centroid movement drops below
/// this.
constexpr double kMovementTolerance = 1e-9;

double squared_distance(std::span<const double> a, std::span<const double> b) {
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

/// k-means++ seeding: first centroid uniform, later centroids proportional
/// to squared distance from the nearest chosen centroid.
Matrix seed_centroids(const Matrix& samples, std::size_t k, Rng& rng,
                      WorkerPool& pool) {
  Matrix centroids(k, samples.cols());
  std::vector<std::size_t> chosen;
  chosen.push_back(rng.index(samples.rows()));

  std::vector<double> best_dist(samples.rows(),
                                std::numeric_limits<double>::max());
  while (chosen.size() < k) {
    const auto last = samples.row(chosen.back());
    pool.run(chunk_count(samples.rows(), kSampleChunk), [&](std::size_t c) {
      const ChunkRange range =
          chunk_range(samples.rows(), kSampleChunk, c);
      for (std::size_t i = range.begin; i < range.end; ++i) {
        best_dist[i] =
            std::min(best_dist[i], squared_distance(samples.row(i), last));
      }
    });
    double total = 0.0;
    for (double d : best_dist) total += d;
    if (total <= 0.0) {
      // All remaining points coincide with a centroid; pick arbitrarily.
      chosen.push_back(rng.index(samples.rows()));
    } else {
      chosen.push_back(rng.weighted_index(best_dist));
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    const auto src = samples.row(chosen[c]);
    std::copy(src.begin(), src.end(), centroids.row(c).begin());
  }
  return centroids;
}

KMeansResult run_once(const Matrix& samples, std::size_t k, Rng& rng,
                      const KMeansOptions& options, WorkerPool& pool) {
  KMeansResult result;
  result.centroids = seed_centroids(samples, k, rng, pool);
  result.assignment.assign(samples.rows(), 0);

  const std::size_t chunks = chunk_count(samples.rows(), kSampleChunk);
  std::vector<unsigned char> chunk_changed(chunks);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Assignment: each sample's nearest centroid is independent (ties break
    // toward the lowest centroid id in every schedule), so the parallel
    // sweep matches the sequential one exactly.
    pool.run(chunks, [&](std::size_t chunk) {
      const ChunkRange range =
          chunk_range(samples.rows(), kSampleChunk, chunk);
      unsigned char any = 0;
      for (std::size_t i = range.begin; i < range.end; ++i) {
        std::size_t best = 0;
        double best_d = std::numeric_limits<double>::max();
        for (std::size_t c = 0; c < k; ++c) {
          const double d =
              squared_distance(samples.row(i), result.centroids.row(c));
          if (d < best_d) {
            best_d = d;
            best = c;
          }
        }
        if (result.assignment[i] != best) {
          result.assignment[i] = best;
          any = 1;
        }
      }
      chunk_changed[chunk] = any;
    });
    bool changed = std::any_of(chunk_changed.begin(), chunk_changed.end(),
                               [](unsigned char c) { return c != 0; });

    Matrix next(k, samples.cols());
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < samples.rows(); ++i) {
      const std::size_t c = result.assignment[i];
      counts[c] += 1;
      auto dst = next.row(c);
      const auto src = samples.row(i);
      for (std::size_t j = 0; j < dst.size(); ++j) dst[j] += src[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster with the sample farthest from its
        // current centroid, so every cluster stays non-empty.
        std::size_t farthest = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < samples.rows(); ++i) {
          const double d = squared_distance(
              samples.row(i), result.centroids.row(result.assignment[i]));
          if (d > far_d) {
            far_d = d;
            farthest = i;
          }
        }
        const auto src = samples.row(farthest);
        std::copy(src.begin(), src.end(), next.row(c).begin());
        result.assignment[farthest] = c;
        changed = true;
      } else {
        auto dst = next.row(c);
        for (double& v : dst) v /= static_cast<double>(counts[c]);
      }
    }

    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      movement +=
          squared_distance(next.row(c), result.centroids.row(c));
    }
    result.centroids = std::move(next);
    if (!changed || movement < kMovementTolerance) break;
  }

  // Inertia: per-chunk partial sums merged in chunk order, so the total has
  // one canonical floating-point association at every thread count.
  std::vector<double> chunk_inertia(chunks, 0.0);
  pool.run(chunks, [&](std::size_t chunk) {
    const ChunkRange range = chunk_range(samples.rows(), kSampleChunk, chunk);
    double partial = 0.0;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      partial += squared_distance(
          samples.row(i), result.centroids.row(result.assignment[i]));
    }
    chunk_inertia[chunk] = partial;
  });
  result.inertia = 0.0;
  for (double partial : chunk_inertia) result.inertia += partial;
  return result;
}

}  // namespace

KMeansResult kmeans(const Matrix& samples, std::size_t k, Rng& rng,
                    const KMeansOptions& options) {
  if (k == 0 || k > samples.rows()) {
    throw std::invalid_argument("kmeans: need 1 <= k <= #samples");
  }
  WorkerPool pool(options.exec.threads);
  KMeansResult best;
  bool have_best = false;
  const std::size_t restarts = std::max<std::size_t>(options.restarts, 1);
  for (std::size_t r = 0; r < restarts; ++r) {
    KMeansResult candidate = run_once(samples, k, rng, options, pool);
    if (!have_best || candidate.inertia < best.inertia) {
      best = std::move(candidate);
      have_best = true;
    }
  }
  if (options.exec.metrics != nullptr) {
    auto& m = *options.exec.metrics;
    m.counter("cmarkov_kmeans_runs_total").add(1);
    m.counter("cmarkov_kmeans_iterations_total").add(best.iterations);
    m.gauge("cmarkov_kmeans_inertia").set(best.inertia);
  }
  return best;
}

}  // namespace cmarkov

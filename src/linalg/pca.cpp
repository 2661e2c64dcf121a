#include "src/linalg/pca.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "src/linalg/eigen.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace cmarkov {

namespace {

/// Sample rows per parallel work item of the row-independent sweeps.
constexpr std::size_t kRowChunk = 64;

/// Orthogonal-iteration steps of the truncated path.
constexpr std::size_t kPowerIterations = 12;

/// Seed of the truncated path's random start basis.
constexpr std::uint64_t kStartBasisSeed = 0x9ca;

/// Total variance = sum of per-column variances (trace of the covariance),
/// computable without forming the covariance matrix.
double total_variance_of(const Matrix& samples,
                         const std::vector<double>& means) {
  double total = 0.0;
  for (std::size_t c = 0; c < samples.cols(); ++c) {
    double ss = 0.0;
    for (std::size_t r = 0; r < samples.rows(); ++r) {
      const double d = samples(r, c) - means[c];
      ss += d * d;
    }
    total += ss / static_cast<double>(samples.rows() - 1);
  }
  return total;
}

/// Gram-Schmidt orthonormalization of the rows of q (in place). Rows that
/// collapse numerically are re-randomized.
void orthonormalize_rows(Matrix& q, Rng& rng) {
  for (std::size_t i = 0; i < q.rows(); ++i) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (std::size_t j = 0; j < i; ++j) {
        double dot = 0.0;
        for (std::size_t c = 0; c < q.cols(); ++c) dot += q(i, c) * q(j, c);
        for (std::size_t c = 0; c < q.cols(); ++c) q(i, c) -= dot * q(j, c);
      }
      double norm = 0.0;
      for (std::size_t c = 0; c < q.cols(); ++c) norm += q(i, c) * q(i, c);
      norm = std::sqrt(norm);
      if (norm > 1e-12) {
        for (std::size_t c = 0; c < q.cols(); ++c) q(i, c) /= norm;
        break;
      }
      for (std::size_t c = 0; c < q.cols(); ++c) {
        q(i, c) = rng.gaussian();
      }
    }
  }
}

}  // namespace

Pca Pca::fit(const Matrix& samples, const PcaOptions& options) {
  if (samples.rows() < 2) {
    throw std::invalid_argument("Pca::fit: need at least 2 samples");
  }
  Pca model;
  model.mean_ = column_means(samples);

  std::vector<double> eigenvalues;
  Matrix axes;  // rows are principal axes

  if (samples.cols() <= options.exact_dimension_limit) {
    // Exact path: covariance + Jacobi.
    const Matrix cov = covariance(samples);
    const EigenDecomposition eig = jacobi_eigen(cov);
    axes = Matrix(eig.vectors.size(), samples.cols());
    eigenvalues.reserve(eig.values.size());
    for (std::size_t k = 0; k < eig.vectors.size(); ++k) {
      eigenvalues.push_back(eig.values[k]);
      for (std::size_t c = 0; c < samples.cols(); ++c) {
        axes(k, c) = eig.vectors[k][c];
      }
    }
  } else {
    // Truncated path: blocked orthogonal iteration extracts the dominant
    // subspace without ever materializing the d x d covariance. The data is
    // centered once into a dense scratch matrix so the inner products are
    // straight contiguous dot products.
    const std::size_t rows = samples.rows();
    const std::size_t dims = samples.cols();
    const std::size_t k = std::min<std::size_t>(
        {options.truncated_components, dims, rows});

    WorkerPool pool(options.exec.threads);
    const std::size_t row_chunks = chunk_count(rows, kRowChunk);

    Matrix centered(rows, dims);
    pool.run(row_chunks, [&](std::size_t chunk) {
      const ChunkRange range = chunk_range(rows, kRowChunk, chunk);
      for (std::size_t r = range.begin; r < range.end; ++r) {
        for (std::size_t c = 0; c < dims; ++c) {
          centered(r, c) = samples(r, c) - model.mean_[c];
        }
      }
    });
    const double denom = static_cast<double>(rows - 1);

    Rng rng(kStartBasisSeed);
    Matrix q(k, dims);  // rows are the current basis vectors
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t c = 0; c < dims; ++c) q(i, c) = rng.gaussian();
    }
    orthonormalize_rows(q, rng);

    // One blocked step: next = (Xc^T (Xc q^T))^T / (rows-1). Both sweeps
    // parallelize without changing any floating-point result: y rows are
    // written by disjoint tasks, and each output row i of the covariance
    // accumulation sums over samples in ascending-r order exactly as the
    // sequential loop does.
    auto covariance_step = [&](const Matrix& basis) {
      Matrix y(rows, k);  // y = Xc * basis^T
      pool.run(row_chunks, [&](std::size_t chunk) {
        const ChunkRange range = chunk_range(rows, kRowChunk, chunk);
        for (std::size_t r = range.begin; r < range.end; ++r) {
          for (std::size_t i = 0; i < k; ++i) {
            double dot = 0.0;
            for (std::size_t c = 0; c < dims; ++c) {
              dot += centered(r, c) * basis(i, c);
            }
            y(r, i) = dot;
          }
        }
      });
      Matrix next(k, dims);  // next = y^T * Xc
      pool.run(k, [&](std::size_t i) {
        auto out = next.row(i);
        for (std::size_t r = 0; r < rows; ++r) {
          const double w = y(r, i);
          if (w == 0.0) continue;
          const auto src = centered.row(r);
          for (std::size_t c = 0; c < dims; ++c) {
            out[c] += w * src[c];
          }
        }
        for (std::size_t c = 0; c < dims; ++c) out[c] /= denom;
      });
      return next;
    };

    for (std::size_t iter = 0; iter < kPowerIterations; ++iter) {
      Matrix next = covariance_step(q);
      orthonormalize_rows(next, rng);
      q = std::move(next);
    }

    // Rayleigh quotients as eigenvalue estimates; sort descending.
    const Matrix cq = covariance_step(q);
    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t i = 0; i < k; ++i) {
      double lambda = 0.0;
      for (std::size_t c = 0; c < dims; ++c) lambda += q(i, c) * cq(i, c);
      ranked.emplace_back(lambda, i);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    axes = Matrix(k, dims);
    for (std::size_t out = 0; out < k; ++out) {
      eigenvalues.push_back(ranked[out].first);
      for (std::size_t c = 0; c < dims; ++c) {
        axes(out, c) = q(ranked[out].second, c);
      }
    }
  }

  const double total_variance =
      total_variance_of(samples, model.mean_);

  std::size_t keep = 0;
  double captured = 0.0;
  const std::size_t cap = options.max_components == 0
                              ? eigenvalues.size()
                              : std::min(options.max_components,
                                         eigenvalues.size());
  if (total_variance <= 0.0) {
    // Degenerate input (all samples identical): keep a single axis so the
    // transform is still well-defined.
    keep = 1;
  } else {
    for (std::size_t k = 0; k < cap; ++k) {
      keep = k + 1;
      captured += std::max(eigenvalues[k], 0.0);
      if (captured / total_variance >= options.variance_to_explain) break;
    }
  }
  keep = std::max<std::size_t>(keep, 1);

  model.basis_ = Matrix(keep, samples.cols());
  for (std::size_t k = 0; k < keep; ++k) {
    for (std::size_t c = 0; c < samples.cols(); ++c) {
      model.basis_(k, c) = axes(k, c);
    }
  }
  model.explained_ratio_ =
      total_variance <= 0.0 ? 1.0
                            : std::min(captured / total_variance, 1.0);
  if (options.exec.metrics != nullptr) {
    auto& m = *options.exec.metrics;
    m.counter("cmarkov_pca_fits_total").add(1);
    m.gauge("cmarkov_pca_components")
        .set(static_cast<double>(model.output_dimension()));
    m.gauge("cmarkov_pca_explained_variance_ratio")
        .set(model.explained_ratio_);
  }
  return model;
}

Matrix Pca::transform(const Matrix& samples, std::size_t num_threads) const {
  if (samples.cols() != mean_.size()) {
    throw std::invalid_argument("Pca::transform: dimension mismatch");
  }
  Matrix out(samples.rows(), basis_.rows());
  parallel_for(num_threads, chunk_count(samples.rows(), kRowChunk),
               [&](std::size_t chunk) {
    const ChunkRange range =
        chunk_range(samples.rows(), kRowChunk, chunk);
    for (std::size_t r = range.begin; r < range.end; ++r) {
      for (std::size_t k = 0; k < basis_.rows(); ++k) {
        double dot = 0.0;
        for (std::size_t c = 0; c < samples.cols(); ++c) {
          dot += (samples(r, c) - mean_[c]) * basis_(k, c);
        }
        out(r, k) = dot;
      }
    }
  });
  return out;
}

}  // namespace cmarkov

// Principal Component Analysis over call-transition vectors (Section III-C).
// The paper maps sparse high-dimension call-transition vectors to a compact
// space before K-means clustering; this is a textbook covariance-eigenvector
// PCA built on the Jacobi solver.
#pragma once

#include <cstddef>

#include "src/linalg/matrix.hpp"
#include "src/util/exec_context.hpp"

namespace cmarkov {

/// How many output dimensions PCA keeps.
struct PcaOptions {
  /// Hard cap on components; 0 means "no cap, use variance target".
  std::size_t max_components = 0;
  /// Keep the smallest number of components whose cumulative explained
  /// variance reaches this fraction (ignored if max_components != 0 and
  /// smaller).
  double variance_to_explain = 0.95;
  /// Above this input dimensionality, exact covariance+Jacobi (O(d^3))
  /// would dominate the whole pipeline (paper-scale models have d = 2n >
  /// 1600); a truncated orthogonal-iteration solver extracting at most
  /// `truncated_components` axes is used instead.
  std::size_t exact_dimension_limit = 160;
  std::size_t truncated_components = 40;
  /// Execution context. exec.threads drives the truncated path's covariance
  /// accumulation and transform() (0 = one per hardware core); results are
  /// identical at any value: parallel tasks write disjoint rows, and
  /// per-cell sums keep their sequential order.
  ExecContext exec;
};

/// A fitted PCA model: mean vector + projection basis.
class Pca {
 public:
  /// Fits on the rows of `samples` (one sample per row). Requires >= 2 rows.
  static Pca fit(const Matrix& samples, const PcaOptions& options = {});

  /// Projects samples (rows) into the principal subspace; the result is the
  /// paper's "post-PCA matrix", one row per call-transition vector. Rows
  /// project independently over `num_threads` workers (0 = one per
  /// hardware core); the output is identical at any thread count.
  Matrix transform(const Matrix& samples, std::size_t num_threads = 1) const;

  std::size_t input_dimension() const { return mean_.size(); }
  std::size_t output_dimension() const { return basis_.rows(); }

  /// Fraction of total variance captured by the retained components.
  double explained_variance_ratio() const { return explained_ratio_; }

  const Matrix& basis() const { return basis_; }

 private:
  std::vector<double> mean_;
  Matrix basis_;  // output_dim x input_dim, rows are principal axes
  double explained_ratio_ = 0.0;
};

}  // namespace cmarkov

// Symmetric eigendecomposition via the cyclic Jacobi rotation method.
// PCA over call-transition vectors only needs the spectrum of a symmetric
// covariance matrix, for which Jacobi is simple, robust and accurate.
#pragma once

#include <cstddef>
#include <vector>

#include "src/linalg/matrix.hpp"

namespace cmarkov {

/// Result of a symmetric eigendecomposition: values are sorted descending,
/// vectors[k] is the unit eigenvector for values[k].
struct EigenDecomposition {
  std::vector<double> values;
  std::vector<std::vector<double>> vectors;
};

/// Decomposes a symmetric matrix. Sweeps stop once the squared
/// off-diagonal mass falls below 1e-12, after at most 100 sweeps. Throws
/// std::invalid_argument when the input is not square or not symmetric
/// (within 1e-9 absolute).
EigenDecomposition jacobi_eigen(const Matrix& symmetric);

}  // namespace cmarkov

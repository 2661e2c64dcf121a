#include "src/linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace cmarkov {

namespace {

/// Convergence: stop when the squared off-diagonal mass falls below this.
constexpr double kTolerance = 1e-12;
/// Safety bound on full sweeps.
constexpr std::size_t kMaxSweeps = 100;

double off_diagonal_mass(const Matrix& m) {
  double total = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (i != j) total += m(i, j) * m(i, j);
    }
  }
  return total;
}

}  // namespace

EigenDecomposition jacobi_eigen(const Matrix& symmetric) {
  const std::size_t n = symmetric.rows();
  if (n == 0 || symmetric.cols() != n) {
    throw std::invalid_argument("jacobi_eigen: matrix must be square");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (std::abs(symmetric(i, j) - symmetric(j, i)) > 1e-9) {
        throw std::invalid_argument("jacobi_eigen: matrix not symmetric");
      }
    }
  }

  Matrix a = symmetric;
  Matrix v = Matrix::identity(n);

  for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (off_diagonal_mass(a) < kTolerance) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        // Classic Jacobi rotation angle selection.
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t lhs, std::size_t rhs) {
              return a(lhs, lhs) > a(rhs, rhs);
            });

  EigenDecomposition out;
  out.values.reserve(n);
  out.vectors.reserve(n);
  for (std::size_t k : order) {
    out.values.push_back(a(k, k));
    out.vectors.push_back(v.col(k));
  }
  return out;
}

}  // namespace cmarkov

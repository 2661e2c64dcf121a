#include "src/linalg/matrix.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace cmarkov {

namespace {

/// rows * cols; std::length_error when the product overflows a size_t
/// (it would wrap to a small allocation that indexing then overruns).
std::size_t element_count(std::size_t rows, std::size_t cols) {
  if (cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols) {
    throw std::length_error("Matrix: " + std::to_string(rows) + " x " +
                            std::to_string(cols) + " elements overflow");
  }
  return rows * cols;
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(element_count(rows, cols), fill) {}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols_) {
      throw std::invalid_argument("Matrix::from_rows: ragged rows");
    }
    for (std::size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

std::span<const double> Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

std::span<double> Matrix::row(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::col(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::col");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  }
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double lhs_rk = (*this)(r, k);
      if (lhs_rk == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out(r, c) += lhs_rk * rhs(k, c);
      }
    }
  }
  return out;
}

double Matrix::row_sum(std::size_t r) const {
  double total = 0.0;
  for (double v : row(r)) total += v;
  return total;
}

double Matrix::col_sum(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::col_sum");
  double total = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) total += (*this)(r, c);
  return total;
}

void Matrix::normalize_rows() {
  for (std::size_t r = 0; r < rows_; ++r) {
    const double total = row_sum(r);
    if (total <= 0.0) {
      const double uniform = 1.0 / static_cast<double>(cols_);
      for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = uniform;
    } else {
      for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) /= total;
    }
  }
}

double Matrix::max_abs_diff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::max_abs_diff: shape mismatch");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

std::string Matrix::to_string(int precision) const {
  std::string out;
  char buf[64];
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      std::snprintf(buf, sizeof(buf), "%s%.*f", c > 0 ? " " : "", precision,
                    (*this)(r, c));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

double euclidean_distance(std::span<const double> a,
                          std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("euclidean_distance: length mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return std::sqrt(total);
}

std::vector<double> column_means(const Matrix& m) {
  if (m.empty()) throw std::invalid_argument("column_means: empty matrix");
  std::vector<double> means(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) means[c] += m(r, c);
  }
  for (double& v : means) v /= static_cast<double>(m.rows());
  return means;
}

Matrix covariance(const Matrix& m) {
  if (m.rows() < 2) {
    throw std::invalid_argument("covariance: need at least 2 samples");
  }
  const auto means = column_means(m);
  Matrix cov(m.cols(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t i = 0; i < m.cols(); ++i) {
      const double di = m(r, i) - means[i];
      if (di == 0.0) continue;
      for (std::size_t j = i; j < m.cols(); ++j) {
        cov(i, j) += di * (m(r, j) - means[j]);
      }
    }
  }
  const double denom = static_cast<double>(m.rows() - 1);
  for (std::size_t i = 0; i < m.cols(); ++i) {
    for (std::size_t j = i; j < m.cols(); ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }
  }
  return cov;
}

}  // namespace cmarkov

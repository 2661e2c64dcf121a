// Dense row-major matrix and the handful of operations the reduction and
// HMM layers need. Self-contained: the paper's pipeline (PCA + K-means +
// HMM parameter matrices) requires no external linear-algebra dependency.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace cmarkov {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix filled with `fill`. Throws std::length_error when
  /// rows * cols overflows.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Builds from nested initializer data; all rows must have equal length.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Unchecked element access for hot loops.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Row-major storage, rows() * cols() doubles.
  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  /// View of row r.
  std::span<const double> row(std::size_t r) const;
  std::span<double> row(std::size_t r);

  /// Copy of column c.
  std::vector<double> col(std::size_t c) const;

  Matrix transposed() const;
  Matrix multiply(const Matrix& rhs) const;

  /// Sum of a row / column.
  double row_sum(std::size_t r) const;
  double col_sum(std::size_t c) const;

  /// Scales every row to sum to 1; rows that sum to zero become uniform.
  /// This is the normalization step used when turning an aggregated
  /// call-transition matrix into an HMM transition matrix.
  void normalize_rows();

  /// Max |a_ij - b_ij| between two equally sized matrices.
  double max_abs_diff(const Matrix& other) const;

  /// Frobenius norm.
  double frobenius_norm() const;

  bool operator==(const Matrix& other) const = default;

  /// Debug rendering with fixed precision.
  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean distance between two equal-length vectors.
double euclidean_distance(std::span<const double> a, std::span<const double> b);

/// Mean of each column; `m` must be non-empty.
std::vector<double> column_means(const Matrix& m);

/// Sample covariance matrix of the rows of `m` (columns are variables).
/// Requires at least 2 rows.
Matrix covariance(const Matrix& m);

}  // namespace cmarkov

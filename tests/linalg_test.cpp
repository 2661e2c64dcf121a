// Unit tests for the dense matrix type and the Jacobi eigen-solver.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/linalg/eigen.hpp"
#include "src/linalg/matrix.hpp"

namespace cmarkov {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m.at(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 3), std::out_of_range);
}

TEST(MatrixTest, RejectsOverflowingShape) {
  const std::size_t half = std::size_t{1} << 32;
  EXPECT_THROW(Matrix(half, half), std::length_error);
  EXPECT_THROW(Matrix(std::numeric_limits<std::size_t>::max(), 2),
               std::length_error);
  EXPECT_EQ(Matrix(half, 0).rows(), half);
}

TEST(MatrixTest, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1.0, 2.0}, {3.0}}), std::invalid_argument);
  const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, IdentityAndMultiply) {
  const Matrix id = Matrix::identity(3);
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  EXPECT_EQ(m.multiply(id), m);
  EXPECT_EQ(id.multiply(m), m);

  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix ab = a.multiply(b);
  EXPECT_DOUBLE_EQ(ab(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(ab(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(ab(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(ab(1, 1), 50.0);
  EXPECT_THROW(a.multiply(Matrix(3, 2)), std::invalid_argument);
}

TEST(MatrixTest, TransposeRoundTrips) {
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.transposed(), m);
}

TEST(MatrixTest, RowAndColSums) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m.row_sum(0), 3.0);
  EXPECT_DOUBLE_EQ(m.col_sum(1), 6.0);
}

TEST(MatrixTest, NormalizeRowsMakesStochastic) {
  Matrix m = Matrix::from_rows({{2, 2}, {0, 0}, {1, 3}});
  m.normalize_rows();
  EXPECT_DOUBLE_EQ(m(0, 0), 0.5);
  // Zero rows become uniform.
  EXPECT_DOUBLE_EQ(m(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(m(2, 1), 0.75);
}

TEST(MatrixTest, MaxAbsDiffAndNorm) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = a;
  b(1, 1) = 4.5;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.5);
  EXPECT_THROW(a.max_abs_diff(Matrix(1, 2)), std::invalid_argument);
  const Matrix unit = Matrix::from_rows({{3, 4}});
  EXPECT_DOUBLE_EQ(unit.frobenius_norm(), 5.0);
}

TEST(MatrixTest, EuclideanDistance) {
  const std::vector<double> a = {0.0, 3.0};
  const std::vector<double> b = {4.0, 0.0};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  const std::vector<double> c = {1.0};
  EXPECT_THROW(euclidean_distance(a, c), std::invalid_argument);
}

TEST(MatrixTest, ColumnMeansAndCovariance) {
  const Matrix samples = Matrix::from_rows({{1, 10}, {3, 14}});
  const auto means = column_means(samples);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 12.0);

  const Matrix cov = covariance(samples);
  // var(x) = ((1-2)^2 + (3-2)^2) / 1 = 2, cov(x,y) = 4, var(y) = 8.
  EXPECT_DOUBLE_EQ(cov(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(cov(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(cov(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(cov(1, 1), 8.0);
  EXPECT_THROW(covariance(Matrix(1, 2)), std::invalid_argument);
}

TEST(JacobiTest, DiagonalMatrixIsItsOwnSpectrum) {
  const Matrix d = Matrix::from_rows({{3, 0}, {0, 1}});
  const auto eig = jacobi_eigen(d);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
}

TEST(JacobiTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/sqrt2,
  // (1,-1)/sqrt2.
  const Matrix m = Matrix::from_rows({{2, 1}, {1, 2}});
  const auto eig = jacobi_eigen(m);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  EXPECT_NEAR(std::abs(eig.vectors[0][0]), 1.0 / std::sqrt(2.0), 1e-8);
  EXPECT_NEAR(std::abs(eig.vectors[0][1]), 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(JacobiTest, ReconstructsMatrix) {
  const Matrix m =
      Matrix::from_rows({{4, 1, 0.5}, {1, 3, 0.25}, {0.5, 0.25, 2}});
  const auto eig = jacobi_eigen(m);
  // Rebuild sum(lambda_k v_k v_k^T) and compare.
  Matrix rebuilt(3, 3);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        rebuilt(i, j) += eig.values[k] * eig.vectors[k][i] * eig.vectors[k][j];
      }
    }
  }
  EXPECT_LT(m.max_abs_diff(rebuilt), 1e-8);
}

TEST(JacobiTest, EigenvectorsAreOrthonormal) {
  const Matrix m = Matrix::from_rows({{5, 2, 1}, {2, 4, 0}, {1, 0, 3}});
  const auto eig = jacobi_eigen(m);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < 3; ++i) {
        dot += eig.vectors[a][i] * eig.vectors[b][i];
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(JacobiTest, RejectsNonSquareAndAsymmetric) {
  EXPECT_THROW(jacobi_eigen(Matrix(2, 3)), std::invalid_argument);
  const Matrix asym = Matrix::from_rows({{1, 2}, {0, 1}});
  EXPECT_THROW(jacobi_eigen(asym), std::invalid_argument);
}

}  // namespace
}  // namespace cmarkov

#include "linalg/symmetric_eigen.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "test_util.h"

namespace dswm {
namespace {

Matrix RandomSymmetric(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(d, d);
  for (int i = 0; i < d; ++i) {
    for (int j = i; j < d; ++j) {
      const double v = rng.NextGaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

Matrix Reconstruct(const EigenResult& eig) {
  const int d = eig.vectors.cols();
  Matrix r(d, d);
  for (int i = 0; i < d; ++i) {
    r.AddOuterProduct(eig.vectors.Row(i), eig.values[i]);
  }
  return r;
}

TEST(SymmetricEigen, DiagonalMatrix) {
  Matrix m(3, 3);
  m(0, 0) = 2.0;
  m(1, 1) = -1.0;
  m(2, 2) = 5.0;
  const EigenResult eig = SymmetricEigen(m);
  EXPECT_NEAR(eig.values[0], 5.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], -1.0, 1e-12);
}

TEST(SymmetricEigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix m(2, 2);
  m(0, 0) = 2;
  m(0, 1) = 1;
  m(1, 0) = 1;
  m(1, 1) = 2;
  const EigenResult eig = SymmetricEigen(m);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(eig.vectors(0, 0)), std::sqrt(0.5), 1e-10);
}

TEST(SymmetricEigen, ZeroMatrix) {
  const EigenResult eig = SymmetricEigen(Matrix(4, 4));
  for (double v : eig.values) EXPECT_DOUBLE_EQ(v, 0.0);
}

class SymmetricEigenProperty : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricEigenProperty, ReconstructsAndOrthonormal) {
  const int d = GetParam();
  const Matrix m = RandomSymmetric(d, 100 + d);
  const EigenResult eig = SymmetricEigen(m);

  // Eigenvalues sorted descending.
  for (int i = 1; i < d; ++i) EXPECT_GE(eig.values[i - 1], eig.values[i]);

  // V rows orthonormal.
  for (int i = 0; i < d; ++i) {
    for (int j = i; j < d; ++j) {
      const double dot = Dot(eig.vectors.Row(i), eig.vectors.Row(j), d);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9) << "i=" << i << " j=" << j;
    }
  }

  // sum lambda_i v_i v_i^T == m.
  const double scale = std::sqrt(m.FrobeniusNormSquared()) + 1e-12;
  EXPECT_LT(MaxAbsDiff(Reconstruct(eig), m) / scale, 1e-9);

  // Trace preserved.
  double trace = 0.0;
  double sum = 0.0;
  for (int i = 0; i < d; ++i) {
    trace += m(i, i);
    sum += eig.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-8 * (std::fabs(trace) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Dims, SymmetricEigenProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 31, 64));

TEST(SymmetricEigen, HandlesSlightAsymmetry) {
  Matrix m = RandomSymmetric(6, 9);
  m(0, 1) += 1e-13;  // accumulated floating-point drift
  const EigenResult eig = SymmetricEigen(m);
  EXPECT_LT(MaxAbsDiff(Reconstruct(eig), m), 1e-10);
}

// The test helper that the FD and cross-validation suites use as their
// exact spectral-norm oracle: the largest |eigenvalue|, negative ones too.
TEST(SpectralNormExact, MatchesMaxAbsEigenvalue) {
  Matrix m(2, 2);
  m(0, 0) = -7.0;
  m(1, 1) = 3.0;
  EXPECT_NEAR(SpectralNormExact(m), 7.0, 1e-12);
}

}  // namespace
}  // namespace dswm

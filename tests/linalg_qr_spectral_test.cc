#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/psd_sqrt.h"
#include "linalg/qr.h"
#include "linalg/spectral_norm.h"
#include "linalg/symmetric_eigen.h"
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

TEST(HouseholderQr, Reconstructs) {
  Rng rng(1);
  Matrix a(6, 4);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 4; ++j) a(i, j) = rng.NextGaussian();
  }
  const QrResult qr = HouseholderQr(a);
  EXPECT_LT(MaxAbsDiff(MatMul(qr.q, qr.r), a), 1e-10);
  // R upper triangular.
  for (int i = 1; i < qr.r.rows(); ++i) {
    for (int j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(qr.r(i, j), 0.0);
  }
  // Q columns orthonormal.
  const Matrix qtq = GramTranspose(qr.q);
  EXPECT_LT(MaxAbsDiff(qtq, Matrix::Identity(4)), 1e-10);
}

class RandomOrthonormalProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RandomOrthonormalProperty, RowsAreOrthonormal) {
  const auto [k, d] = GetParam();
  Rng rng(17);
  const Matrix u = RandomOrthonormalRows(k, d, &rng);
  ASSERT_EQ(u.rows(), k);
  ASSERT_EQ(u.cols(), d);
  const Matrix uut = Gram(u);
  EXPECT_LT(MaxAbsDiff(uut, Matrix::Identity(k)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RandomOrthonormalProperty,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 5},
                                           std::pair{5, 5}, std::pair{8, 32},
                                           std::pair{32, 32}));

TEST(SpectralNorm, MatchesExactOnRandomSymmetric) {
  for (int d : {2, 5, 12, 33}) {
    const Matrix m = RandomSymmetric(d, 200 + d);
    const double exact = SpectralNormExact(m);
    const double power = SpectralNormSym(m);
    EXPECT_NEAR(power, exact, 1e-5 * exact) << "d=" << d;
  }
}

TEST(SpectralNorm, DominantNegativeEigenvalue) {
  Matrix m(2, 2);
  m(0, 0) = -10.0;
  m(1, 1) = 3.0;
  EXPECT_NEAR(SpectralNormSym(m), 10.0, 1e-6);
}

TEST(SpectralNorm, SymmetricPlusMinusPair) {
  // lambda = +5 and -5: the M^2 iteration must not cancel them out.
  Matrix m(2, 2);
  m(0, 1) = 5.0;
  m(1, 0) = 5.0;
  EXPECT_NEAR(SpectralNormSym(m), 5.0, 1e-6);
}

TEST(SpectralNorm, ZeroMatrix) {
  EXPECT_DOUBLE_EQ(SpectralNormSym(Matrix(4, 4)), 0.0);
}

TEST(PsdSqrt, RoundTripsPsdMatrix) {
  Rng rng(8);
  Matrix b0(5, 7);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 7; ++j) b0(i, j) = rng.NextGaussian();
  }
  const Matrix c = GramTranspose(b0);
  const Matrix b = PsdSqrt(c);
  EXPECT_LE(b.rows(), 7);
  EXPECT_LT(MaxAbsDiff(GramTranspose(b), c),
            1e-8 * (1.0 + c.FrobeniusNormSquared()));
}

TEST(PsdSqrt, ClampsNegativeEigenvalues) {
  Matrix c(2, 2);
  c(0, 0) = 4.0;
  c(1, 1) = -1.0;  // slightly indefinite accumulation artifact
  const Matrix b = PsdSqrt(c);
  ASSERT_EQ(b.rows(), 1);
  EXPECT_NEAR(NormSquared(b.Row(0), 2), 4.0, 1e-12);
}

TEST(PsdSqrt, ZeroMatrixGivesEmptySketch) {
  EXPECT_EQ(PsdSqrt(Matrix(3, 3)).rows(), 0);
}

}  // namespace
}  // namespace dswm

// Cross-validation between independent implementations of the same
// mathematics: RightSvd vs a Krylov run on A^T A and against its own other
// Gram route, spectral-norm estimators vs exact eigenvalues, FD vs exact
// covariance on random sweeps, and mEH vs the scalar gEH on the F-norm
// they both track.

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/lanczos.h"
#include "linalg/spectral_norm.h"
#include "linalg/svd.h"
#include "sketch/frequent_directions.h"
#include "test_util.h"
#include "window/exponential_histogram.h"
#include "window/matrix_eh.h"

namespace dswm {
namespace {

Matrix RandomMatrix(int n, int d, uint64_t seed, double spread = 0.0) {
  Rng rng(seed);
  Matrix m(n, d);
  for (int i = 0; i < n; ++i) {
    const double scale =
        spread > 0.0 ? std::exp(spread * rng.NextGaussian()) : 1.0;
    for (int j = 0; j < d; ++j) m(i, j) = scale * rng.NextGaussian();
  }
  return m;
}

struct Shape {
  int n;
  int d;
};

void PrintTo(const Shape& s, std::ostream* os) {
  *os << "n=" << s.n << " d=" << s.d;
}

class SvdCrossValidation : public ::testing::TestWithParam<Shape> {};

TEST_P(SvdCrossValidation, RightSvdAndLanczosAgree) {
  const auto [n, d] = GetParam();
  const Matrix a = RandomMatrix(n, d, 7 * n + d, 0.5);
  const RightSvdResult svd = RightSvd(a);
  const int r = std::min(n, d);

  // Lanczos on A^T A, run until it breaks down or spans the whole space:
  // every nonzero eigenvalue is then a Ritz value. It shares no code with
  // RightSvd's dense tridiagonalization.
  const Matrix c = GramTranspose(a);
  Lanczos lanczos;
  const std::vector<double> start(d, 1.0);
  lanczos.Start(start.data(), d, d);
  while (lanczos.Step(
      [&c](const double* x, double* y) { MatVec(c, x, y); })) {
  }
  ASSERT_TRUE(lanczos.SolveRitz());
  ASSERT_GE(static_cast<int>(lanczos.ritz_values().size()), r);
  const double top = svd.sigma_squared[0];
  for (int i = 0; i < r; ++i) {
    EXPECT_NEAR(svd.sigma_squared[i], lanczos.ritz_values()[i], 1e-9 * top)
        << "i=" << i;
  }

  // The leading right vector, when its value is isolated, is the top Ritz
  // vector up to sign.
  if (r >= 2 && svd.sigma_squared[0] > 1.05 * svd.sigma_squared[1]) {
    std::vector<double> y(d);
    lanczos.RitzVector(0, y.data());
    EXPECT_NEAR(std::fabs(Dot(svd.vt.Row(0), y.data(), d)), 1.0, 1e-8);
  }
}

// RightSvd(A) and RightSvd(A^T) take opposite Gram routes unless A is
// square, where both take the short side's. Either way they must describe
// one SVD: equal squared singular values, and A v_i = +-sigma_i u_i, where
// the right vectors u_i of A^T are the left vectors of A.
TEST_P(SvdCrossValidation, RightVectorsOfBothSidesPairUp) {
  const auto [n, d] = GetParam();
  const Matrix a = RandomMatrix(n, d, 7 * n + d, 0.5);
  const RightSvdResult right = RightSvd(a);
  const RightSvdResult left = RightSvd(Transpose(a));
  const int r = std::min(n, d);
  ASSERT_EQ(static_cast<int>(right.sigma_squared.size()), r);
  ASSERT_EQ(static_cast<int>(left.sigma_squared.size()), r);
  ASSERT_EQ(left.vt.cols(), n);
  const double top = right.sigma_squared[0];
  std::vector<double> av(n);
  int paired = 0;
  for (int i = 0; i < r; ++i) {
    const double s2 = right.sigma_squared[i];
    EXPECT_NEAR(left.sigma_squared[i], s2, 1e-10 * top) << "i=" << i;
    // A singular vector is determined up to sign only when its value is
    // separated from its neighbours.
    const bool isolated =
        (i == 0 || right.sigma_squared[i - 1] > 1.01 * s2) &&
        (i + 1 == r || s2 > 1.01 * right.sigma_squared[i + 1]);
    if (!isolated || s2 < 1e-6 * top) continue;
    MatVec(a, right.vt.Row(i), av.data());
    EXPECT_NEAR(NormSquared(av.data(), n), s2, 1e-9 * top) << "i=" << i;
    EXPECT_NEAR(std::fabs(Dot(av.data(), left.vt.Row(i), n)), std::sqrt(s2),
                1e-7 * std::sqrt(top))
        << "i=" << i;
    ++paired;
  }
  EXPECT_GT(paired, 0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdCrossValidation,
                         ::testing::Values(Shape{6, 6}, Shape{20, 7},
                                           Shape{7, 20}, Shape{32, 16},
                                           Shape{48, 48}));

TEST(SpectralCrossValidation, ThreeEstimatorsAgree) {
  for (int d : {4, 9, 21}) {
    const Matrix a = RandomMatrix(2 * d, d, 31 + d);
    const Matrix c = GramTranspose(a);
    const double exact = SpectralNormExact(c);
    const double power = SpectralNormSym(c);
    // Lanczos run to the full dimension: its Ritz values are eigenvalues.
    Lanczos lanczos;
    const std::vector<double> start(d, 1.0);
    lanczos.Start(start.data(), d, d);
    while (lanczos.Step(
        [&c](const double* x, double* y) { MatVec(c, x, y); })) {
    }
    ASSERT_TRUE(lanczos.SolveRitz());
    const double krylov =
        std::fabs(lanczos.ritz_values()[lanczos.TopIndex()]);
    EXPECT_NEAR(power, exact, 1e-5 * exact);
    EXPECT_NEAR(krylov, exact, 1e-10 * exact);
  }
}

struct FdSweep {
  int n;
  int d;
  int ell;
  double spread;
};

// Names the case by its fields rather than by its raw bytes, whose padding
// made the ctest name differ between builds.
void PrintTo(const FdSweep& c, std::ostream* os) {
  *os << "n=" << c.n << " d=" << c.d << " ell=" << c.ell
      << " spread=" << c.spread;
}

class FdCrossValidation : public ::testing::TestWithParam<FdSweep> {};

TEST_P(FdCrossValidation, ErrorMeasuredTwoWaysMatches) {
  const auto [n, d, ell, spread] = GetParam();
  const Matrix rows = RandomMatrix(n, d, 3 * n + d + ell, spread);
  FrequentDirections fd(d, ell);
  for (int i = 0; i < n; ++i) fd.Append(rows.Row(i));

  const Matrix gap = Subtract(GramTranspose(rows), fd.Covariance());
  const double exact = SpectralNormExact(gap);
  const double power = SpectralNormSym(gap);
  EXPECT_NEAR(power, exact, 1e-4 * (exact + 1e-12));
  EXPECT_LE(exact, fd.shrinkage() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FdCrossValidation,
    ::testing::Values(FdSweep{100, 6, 2, 0.0}, FdSweep{400, 10, 5, 1.0},
                      FdSweep{250, 16, 4, 2.0}, FdSweep{800, 8, 8, 0.5}));

TEST(WindowCrossValidation, MehMassMatchesGehSum) {
  // The mEH's F-norm estimate and a gEH fed the same squared norms must
  // agree within their combined tolerances at all times.
  const int d = 5;
  const Timestamp window = 400;
  MatrixExpHistogram meh(d, 0.2, window);
  ExponentialHistogram geh(0.05, window);
  Rng rng(41);
  std::vector<double> row(d);
  for (int i = 1; i <= 3000; ++i) {
    for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
    meh.Insert(row.data(), i);
    geh.Insert(NormSquared(row.data(), d), i);
    if (i > 400 && i % 61 == 0) {
      const double a = meh.FrobeniusSquaredEstimate();
      const double b = geh.Query(i);
      EXPECT_NEAR(a, b, 0.25 * b);
    }
  }
}

}  // namespace
}  // namespace dswm

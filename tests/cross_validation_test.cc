// Cross-validation between independent implementations of the same
// mathematics: the two SVD paths, spectral-norm estimators vs exact
// eigenvalues, FD vs exact covariance on random sweeps, and mEH vs the
// scalar gEH on the F-norm they both track.

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/bidiag_svd.h"
#include "linalg/lanczos.h"
#include "linalg/spectral_norm.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "sketch/frequent_directions.h"
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

class SvdCrossValidation : public ::testing::TestWithParam<Shape> {};

TEST_P(SvdCrossValidation, GramAndBidiagonalAgree) {
  const auto [n, d] = GetParam();
  const Matrix a = RandomMatrix(n, d, 7 * n + d, 0.5);
  const SvdResult gram = ThinSvd(a, 1e-9);
  const SvdResult bidiag = BidiagonalSvd(a, 1e-9);
  ASSERT_EQ(gram.sigma.size(), bidiag.sigma.size());
  for (size_t i = 0; i < gram.sigma.size(); ++i) {
    EXPECT_NEAR(gram.sigma[i], bidiag.sigma[i], 1e-6 * bidiag.sigma[0])
        << "i=" << i;
  }
  // Right subspaces agree: every gram v_i has unit projection onto the
  // bidiagonal basis restricted to (numerically) equal singular values.
  // Spot-check the leading vector when it is isolated.
  if (gram.sigma.size() >= 2 &&
      gram.sigma[0] > 1.05 * gram.sigma[1]) {
    const double dot =
        std::fabs(Dot(gram.vt.Row(0), bidiag.vt.Row(0), d));
    EXPECT_NEAR(dot, 1.0, 1e-6);
  }
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
    const double svd_based = BidiagonalSvd(a).sigma[0];
    EXPECT_NEAR(power, exact, 1e-5 * exact);
    EXPECT_NEAR(krylov, exact, 1e-10 * exact);
    EXPECT_NEAR(svd_based * svd_based, exact, 1e-6 * exact);
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

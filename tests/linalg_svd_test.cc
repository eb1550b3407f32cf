#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/qr.h"
#include "test_util.h"

namespace dswm {
namespace {

Matrix RandomMatrix(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) m(i, j) = rng.NextGaussian();
  }
  return m;
}

// A = sum_k sigma[k] u_k v_k^T with random orthonormal u_k (length n) and
// v_k (length d); the v_k are written to `v` as rows.
Matrix Planted(int n, int d, const std::vector<double>& sigma, uint64_t seed,
               Matrix* v) {
  Rng rng(seed);
  const int k = static_cast<int>(sigma.size());
  const Matrix u = RandomOrthonormalRows(k, n, &rng);
  *v = RandomOrthonormalRows(k, d, &rng);
  Matrix a(n, d);
  for (int c = 0; c < k; ++c) {
    for (int i = 0; i < n; ++i) {
      Axpy(sigma[c] * u(c, i), v->Row(c), a.Row(i), d);
    }
  }
  return a;
}

// A^T A rebuilt as sum_i sigma_i^2 v_i v_i^T.
Matrix ReconstructGram(const RightSvdResult& svd) {
  const int d = svd.vt.cols();
  Matrix g(d, d);
  for (int i = 0; i < svd.vt.rows(); ++i) {
    g.AddOuterProduct(svd.vt.Row(i), svd.sigma_squared[i]);
  }
  return g;
}

struct Shape {
  int n;
  int d;
};

void PrintTo(const Shape& s, std::ostream* os) {
  *os << "n=" << s.n << " d=" << s.d;
}

class RightSvdProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(RightSvdProperty, RebuildsGramWithOrthonormalRows) {
  const auto [n, d] = GetParam();
  const Matrix a = RandomMatrix(n, d, 31 * n + d);
  const RightSvdResult svd = RightSvd(a);
  const int r = std::min(n, d);
  ASSERT_EQ(static_cast<int>(svd.sigma_squared.size()), r);
  ASSERT_EQ(svd.vt.rows(), r);
  ASSERT_EQ(svd.vt.cols(), d);

  // Descending nonnegative squared singular values.
  for (int i = 1; i < r; ++i) {
    EXPECT_GE(svd.sigma_squared[i - 1], svd.sigma_squared[i]);
  }
  for (double s2 : svd.sigma_squared) EXPECT_GE(s2, 0.0);

  // Vt rows orthonormal (a Gaussian matrix has full rank r).
  for (int i = 0; i < r; ++i) {
    for (int j = i; j < r; ++j) {
      EXPECT_NEAR(Dot(svd.vt.Row(i), svd.vt.Row(j), d), i == j ? 1.0 : 0.0,
                  1e-8);
    }
  }

  const double scale = a.FrobeniusNormSquared() + 1e-12;
  EXPECT_LT(MaxAbsDiff(ReconstructGram(svd), GramTranspose(a)) / scale,
            1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RightSvdProperty,
    ::testing::Values(Shape{1, 1}, Shape{3, 8}, Shape{8, 3}, Shape{5, 5},
                      Shape{2, 40}, Shape{40, 2}, Shape{20, 64},
                      Shape{64, 20}));

class RightSvdPlanted : public ::testing::TestWithParam<Shape> {};

TEST_P(RightSvdPlanted, RecoversSpectrumAndRightVectors) {
  const auto [n, d] = GetParam();
  const int r = std::min(n, d);
  // sigma_k = r - k: distinct, so every right vector is fixed up to sign.
  std::vector<double> sigma(r);
  for (int k = 0; k < r; ++k) sigma[k] = r - k;
  Matrix v;
  const Matrix a = Planted(n, d, sigma, 17 * n + d, &v);
  const RightSvdResult svd = RightSvd(a);
  ASSERT_EQ(static_cast<int>(svd.sigma_squared.size()), r);
  const double top = sigma[0] * sigma[0];
  for (int k = 0; k < r; ++k) {
    EXPECT_NEAR(svd.sigma_squared[k], sigma[k] * sigma[k], 1e-12 * top)
        << "k=" << k;
    EXPECT_NEAR(std::fabs(Dot(svd.vt.Row(k), v.Row(k), d)), 1.0, 1e-10)
        << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RightSvdPlanted,
    ::testing::Values(Shape{1, 1}, Shape{2, 2}, Shape{5, 3}, Shape{3, 5},
                      Shape{10, 10}, Shape{40, 12}, Shape{12, 40},
                      Shape{64, 32}, Shape{33, 33}));

TEST(RightSvd, RankDeficientHasZeroSigmaPastTheRank) {
  // Two identical rows: rank 1.
  Matrix a(2, 4);
  for (int j = 0; j < 4; ++j) {
    a(0, j) = j + 1.0;
    a(1, j) = j + 1.0;
  }
  const RightSvdResult svd = RightSvd(a);
  ASSERT_EQ(svd.sigma_squared.size(), 2u);
  const double lead = 2.0 * (1 + 4 + 9 + 16);
  EXPECT_NEAR(svd.sigma_squared[0], lead, 1e-9);
  EXPECT_NEAR(svd.sigma_squared[1], 0.0, 1e-12 * lead);
  // The rank-1 term alone rebuilds A^T A.
  Matrix g(4, 4);
  g.AddOuterProduct(svd.vt.Row(0), svd.sigma_squared[0]);
  EXPECT_LT(MaxAbsDiff(g, GramTranspose(a)), 1e-9 * lead);
}

TEST(RightSvd, EmptyMatrix) {
  const RightSvdResult svd = RightSvd(Matrix(0, 5));
  EXPECT_TRUE(svd.sigma_squared.empty());
  EXPECT_EQ(svd.vt.rows(), 0);
  EXPECT_EQ(svd.vt.cols(), 5);
}

TEST(RightSvd, ExactlyRankDeficient) {
  // Rank 2 (sigma = 3, 2), on the tall route (10 x 6) and the wide one.
  for (const Shape shape : {Shape{10, 6}, Shape{6, 10}}) {
    SCOPED_TRACE(::testing::PrintToString(shape));
    Matrix v;
    const Matrix a = Planted(shape.n, shape.d, {3.0, 2.0}, 11, &v);
    const RightSvdResult svd = RightSvd(a);
    ASSERT_EQ(svd.sigma_squared.size(), 6u);
    EXPECT_NEAR(svd.sigma_squared[0], 9.0, 1e-12 * 9.0);
    EXPECT_NEAR(svd.sigma_squared[1], 4.0, 1e-12 * 9.0);
    for (int k = 2; k < 6; ++k) {
      EXPECT_GE(svd.sigma_squared[k], 0.0);
      EXPECT_LE(svd.sigma_squared[k], 1e-13 * 9.0) << "k=" << k;
    }
    for (int k = 0; k < 2; ++k) {
      EXPECT_NEAR(std::fabs(Dot(svd.vt.Row(k), v.Row(k), shape.d)), 1.0,
                  1e-12)
          << "k=" << k;
    }
  }
}

TEST(RightSvd, ZeroMatrix) {
  // Tall: the eigenvectors of the zero Gram matrix, still orthonormal.
  const RightSvdResult tall = RightSvd(Matrix(4, 3));
  ASSERT_EQ(tall.sigma_squared, (std::vector<double>{0.0, 0.0, 0.0}));
  for (int i = 0; i < 3; ++i) {
    for (int j = i; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(Dot(tall.vt.Row(i), tall.vt.Row(j), 3),
                       i == j ? 1.0 : 0.0);
    }
  }
  // Wide: no direction to map back through A^T, so every row stays zero.
  const RightSvdResult wide = RightSvd(Matrix(3, 4));
  ASSERT_EQ(wide.sigma_squared, (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_EQ(wide.vt, Matrix(3, 4));
}

TEST(RightSvd, ZeroColumnInside) {
  // Column 1 is zero, so A^T A = diag(1, 0, 5).
  Matrix a(4, 3);
  a(0, 0) = 1.0;
  a(1, 2) = 2.0;
  a(2, 2) = 1.0;
  const RightSvdResult tall = RightSvd(a);
  ASSERT_EQ(tall.sigma_squared.size(), 3u);
  EXPECT_NEAR(tall.sigma_squared[0], 5.0, 1e-14);
  EXPECT_NEAR(tall.sigma_squared[1], 1.0, 1e-14);
  EXPECT_DOUBLE_EQ(tall.sigma_squared[2], 0.0);
  EXPECT_NEAR(std::fabs(tall.vt(0, 2)), 1.0, 1e-14);
  EXPECT_NEAR(std::fabs(tall.vt(1, 0)), 1.0, 1e-14);
  EXPECT_NEAR(std::fabs(tall.vt(2, 1)), 1.0, 1e-14);

  // Its transpose has a zero row and takes the wide route: A A^T is the
  // same diagonal, and the exactly-zero direction leaves a zero row.
  const RightSvdResult wide = RightSvd(Transpose(a));
  ASSERT_EQ(wide.sigma_squared.size(), 3u);
  EXPECT_NEAR(wide.sigma_squared[0], 5.0, 1e-14);
  EXPECT_NEAR(wide.sigma_squared[1], 1.0, 1e-14);
  EXPECT_DOUBLE_EQ(wide.sigma_squared[2], 0.0);
  const double inv_sqrt5 = 1.0 / std::sqrt(5.0);
  EXPECT_NEAR(std::fabs(wide.vt(0, 1)), 2.0 * inv_sqrt5, 1e-14);
  EXPECT_NEAR(std::fabs(wide.vt(0, 2)), inv_sqrt5, 1e-14);
  EXPECT_NEAR(std::fabs(wide.vt(1, 0)), 1.0, 1e-14);
  EXPECT_DOUBLE_EQ(NormSquared(wide.vt.Row(2), 4), 0.0);
}

TEST(RightSvd, GradedSpectrum) {
  // sigma_c = 2^-c over 16 directions: squaring through the Gram matrix
  // keeps each sigma_c^2 to an absolute error near machine epsilon times
  // sigma_0^2, on both routes.
  const int k = 16;
  std::vector<double> sigma(k);
  for (int c = 0; c < k; ++c) sigma[c] = std::pow(2.0, -c);
  for (const Shape shape : {Shape{24, 20}, Shape{20, 24}}) {
    SCOPED_TRACE(::testing::PrintToString(shape));
    Matrix v;
    const Matrix a = Planted(shape.n, shape.d, sigma, 13, &v);
    const RightSvdResult svd = RightSvd(a);
    ASSERT_EQ(svd.sigma_squared.size(), 20u);
    for (int c = 0; c < 20; ++c) {
      const double want = c < k ? sigma[c] * sigma[c] : 0.0;
      EXPECT_NEAR(svd.sigma_squared[c], want, 1e-14) << "c=" << c;
    }
    // Directions well above the rounding floor are recovered too.
    for (int c = 0; c <= 8; ++c) {
      EXPECT_NEAR(std::fabs(Dot(svd.vt.Row(c), v.Row(c), shape.d)), 1.0,
                  1e-9)
          << "c=" << c;
    }
    // The rows are orthonormal, also where the wide route divided by a
    // sigma near the rounding floor. Past the rank, where sigma^2 is only
    // rounding, a row may instead be left zero.
    for (int i = 0; i < 20; ++i) {
      const double norm2 = NormSquared(svd.vt.Row(i), shape.d);
      if (i >= k && norm2 == 0.0) continue;
      EXPECT_NEAR(norm2, 1.0, 1e-12) << "i=" << i;
      for (int j = i + 1; j < 20; ++j) {
        EXPECT_NEAR(Dot(svd.vt.Row(i), svd.vt.Row(j), shape.d), 0.0, 1e-12)
            << "i=" << i << " j=" << j;
      }
    }
  }
}

TEST(RightSvd, SmallSigmaIsLostBelowTheGramFloor) {
  // sigma = {1, 1e-9}: sigma_1^2 = 1e-18 sits below the Gram matrix's
  // rounding floor, as the header's accuracy note says. RightSvd must
  // still return it as a nonnegative value at that floor, never as a
  // negative or inflated one.
  Matrix v;
  const Matrix a = Planted(12, 12, {1.0, 1e-9}, 9, &v);
  const RightSvdResult svd = RightSvd(a);
  ASSERT_EQ(svd.sigma_squared.size(), 12u);
  EXPECT_NEAR(svd.sigma_squared[0], 1.0, 1e-14);
  for (int k = 1; k < 12; ++k) {
    EXPECT_GE(svd.sigma_squared[k], 0.0) << "k=" << k;
    EXPECT_LE(svd.sigma_squared[k], 1e-14) << "k=" << k;
  }
  EXPECT_NEAR(std::fabs(Dot(svd.vt.Row(0), v.Row(0), 12)), 1.0, 1e-12);
}

TEST(RightSvd, NearDegeneratePairStaysOrthonormal) {
  // Two singular values 1e-10 apart leave each of their right vectors
  // free inside one plane. The wide route's rows for them, mapped back
  // as A^T u_i / sigma_i, must still be an orthonormal basis of exactly
  // that plane.
  Matrix v;
  const Matrix a = Planted(5, 30, {2.0, 1.0 + 1e-10, 1.0, 0.5, 0.25}, 21, &v);
  const RightSvdResult svd = RightSvd(a);
  ASSERT_EQ(svd.vt.rows(), 5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i; j < 5; ++j) {
      EXPECT_NEAR(Dot(svd.vt.Row(i), svd.vt.Row(j), 30), i == j ? 1.0 : 0.0,
                  1e-12)
          << "i=" << i << " j=" << j;
    }
  }
  for (int i = 1; i <= 2; ++i) {
    const double p1 = Dot(svd.vt.Row(i), v.Row(1), 30);
    const double p2 = Dot(svd.vt.Row(i), v.Row(2), 30);
    EXPECT_NEAR(p1 * p1 + p2 * p2, 1.0, 1e-10) << "i=" << i;
  }
  for (const int k : {0, 3, 4}) {
    EXPECT_NEAR(std::fabs(Dot(svd.vt.Row(k), v.Row(k), 30)), 1.0, 1e-12)
        << "k=" << k;
  }
}

TEST(RightSvd, SigmaSquaredMatchesGramEigenvalues) {
  const Matrix a = RandomMatrix(6, 4, 77);
  const RightSvdResult r = RightSvd(a);
  // sum sigma^2 = ||A||_F^2.
  double sum = 0.0;
  for (double s2 : r.sigma_squared) sum += s2;
  EXPECT_NEAR(sum, a.FrobeniusNormSquared(), 1e-8);
  // A^T A v_i = sigma_i^2 v_i.
  const Matrix g = GramTranspose(a);
  std::vector<double> gv(4);
  for (int i = 0; i < 4; ++i) {
    MatVec(g, r.vt.Row(i), gv.data());
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(gv[j], r.sigma_squared[i] * r.vt(i, j), 1e-7);
    }
  }
}

TEST(RightSvd, WideMatrixUsesSmallGram) {
  // 3 x 200: the decomposition must go through the 3x3 Gram matrix and
  // still produce orthonormal right vectors.
  const Matrix a = RandomMatrix(3, 200, 5);
  const RightSvdResult r = RightSvd(a);
  ASSERT_EQ(r.vt.rows(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(NormSquared(r.vt.Row(i), 200), 1.0, 1e-8);
  }
}

}  // namespace
}  // namespace dswm

// Bitwise equivalence of the blocked/vectorized linalg kernels against
// their naive *Reference oracles, across a shape grid that exercises every
// dispatch path: empty, 1x1, tall, wide, exact register-tile multiples,
// ragged edges (not multiples of the 4-row / 4-or-8-column tile), and
// reductions longer than the kKc=256 k-block. The *Threaded tests assert
// the same bitwise identity at 4 threads (row-tile distribution must not
// change any accumulation order).
//
// The d x d kernels (SymmetricEigen's tred2/QL, MatVec, AddOuterProduct,
// AddScaled) are checked against test-local scalar oracles: the loop
// bodies those kernels had before they were vectorized. Every output
// element must come from the same IEEE operations in the same order, so
// eigenvalues and eigenvectors are compared with memcmp.
//
// The Krylov primitives (Lanczos, CertifyNormBelow) are checked against
// SymmetricEigen on the same matrix families: to rounding, not bitwise.

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/spectral_norm.h"
#include "linalg/symmetric_eigen.h"
#include "test_util.h"

namespace dswm {
namespace {

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng.NextGaussian();
  }
  return m;
}

// Bitwise comparison (memcmp of the row payloads, not double ==, so even a
// -0.0 vs +0.0 discrepancy would be caught).
::testing::AssertionResult BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  for (int i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.Row(i), b.Row(i),
                    sizeof(double) * static_cast<size_t>(a.cols())) != 0) {
      return ::testing::AssertionFailure()
             << "row " << i << " differs; MaxAbsDiff=" << MaxAbsDiff(a, b);
    }
  }
  return ::testing::AssertionSuccess();
}

// Restores the global pool size on scope exit so a failing test cannot
// leak a multi-threaded pool into unrelated tests.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { ThreadPool::SetGlobalThreads(n); }
  ~ScopedThreads() { ThreadPool::SetGlobalThreads(1); }
};

struct MatMulShape {
  int m;
  int k;
  int p;
};

class MatMulEquivalence : public ::testing::TestWithParam<MatMulShape> {};

TEST_P(MatMulEquivalence, BitIdenticalToReference) {
  const auto [m, k, p] = GetParam();
  const Matrix a = RandomMatrix(m, k, 1000 + static_cast<uint64_t>(m));
  const Matrix b = RandomMatrix(k, p, 2000 + static_cast<uint64_t>(p));
  EXPECT_TRUE(BitIdentical(MatMul(a, b), MatMulReference(a, b)));
}

TEST_P(MatMulEquivalence, ThreadedBitIdenticalToSingle) {
  const auto [m, k, p] = GetParam();
  const Matrix a = RandomMatrix(m, k, 3000 + static_cast<uint64_t>(m));
  const Matrix b = RandomMatrix(k, p, 4000 + static_cast<uint64_t>(p));
  const Matrix single = MatMul(a, b);
  ScopedThreads threads(4);
  EXPECT_TRUE(BitIdentical(MatMul(a, b), single));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulEquivalence,
    ::testing::Values(MatMulShape{0, 0, 0}, MatMulShape{0, 3, 2},
                      MatMulShape{2, 0, 3}, MatMulShape{1, 1, 1},
                      MatMulShape{4, 4, 4}, MatMulShape{4, 4, 8},
                      MatMulShape{5, 7, 9}, MatMulShape{8, 8, 8},
                      MatMulShape{3, 100, 2}, MatMulShape{100, 3, 100},
                      MatMulShape{13, 17, 11}, MatMulShape{16, 32, 24},
                      MatMulShape{33, 29, 37}, MatMulShape{64, 64, 64},
                      // k > kKc: the reduction crosses a k-block boundary,
                      // exercising the store/reload of partial tiles.
                      MatMulShape{20, 300, 20}, MatMulShape{7, 513, 12}));

struct GramShape {
  int rows;
  int cols;
};

class GramEquivalence : public ::testing::TestWithParam<GramShape> {};

TEST_P(GramEquivalence, GramBitIdenticalToReference) {
  const auto [rows, cols] = GetParam();
  const Matrix a = RandomMatrix(rows, cols, 5000 + static_cast<uint64_t>(rows));
  EXPECT_TRUE(BitIdentical(Gram(a), GramReference(a)));
}

TEST_P(GramEquivalence, GramTransposeBitIdenticalToReference) {
  const auto [rows, cols] = GetParam();
  const Matrix a = RandomMatrix(rows, cols, 6000 + static_cast<uint64_t>(cols));
  EXPECT_TRUE(BitIdentical(GramTranspose(a), GramTransposeReference(a)));
}

TEST_P(GramEquivalence, PrefixMatchesFullKernelOnPrefixCopy) {
  const auto [rows, cols] = GetParam();
  const Matrix a = RandomMatrix(rows, cols, 7000 + static_cast<uint64_t>(rows));
  for (const int r : {0, 1, rows / 2, rows}) {
    if (r > rows) continue;
    Matrix prefix(r, cols);
    for (int i = 0; i < r; ++i) prefix.SetRow(i, a.Row(i));
    EXPECT_TRUE(BitIdentical(GramPrefix(a, r), Gram(prefix))) << "r=" << r;
    EXPECT_TRUE(BitIdentical(GramTransposePrefix(a, r), GramTranspose(prefix)))
        << "r=" << r;
  }
}

TEST_P(GramEquivalence, ThreadedBitIdenticalToSingle) {
  const auto [rows, cols] = GetParam();
  const Matrix a = RandomMatrix(rows, cols, 8000 + static_cast<uint64_t>(cols));
  const Matrix gram_single = Gram(a);
  const Matrix gramt_single = GramTranspose(a);
  ScopedThreads threads(4);
  EXPECT_TRUE(BitIdentical(Gram(a), gram_single));
  EXPECT_TRUE(BitIdentical(GramTranspose(a), gramt_single));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GramEquivalence,
    ::testing::Values(GramShape{0, 0}, GramShape{0, 5}, GramShape{1, 1},
                      GramShape{1, 9}, GramShape{4, 4}, GramShape{5, 3},
                      GramShape{3, 5}, GramShape{8, 8}, GramShape{12, 8},
                      GramShape{13, 17}, GramShape{40, 43},
                      GramShape{64, 33}, GramShape{33, 64},
                      GramShape{2, 300}, GramShape{300, 2},
                      // rows > kKc for GramTranspose's k-blocked reduction.
                      GramShape{280, 24}));

TEST(KernelEquivalence, MatMulSpecialValuesSurviveBlocking) {
  // The blocked kernel must not "optimize" away zeros (the old naive loop
  // skipped aik == 0.0, which breaks NaN/inf propagation semantics).
  Matrix a(4, 4);
  Matrix b(4, 4);
  a(0, 0) = 0.0;
  a(1, 1) = 1.0;
  b(0, 2) = std::numeric_limits<double>::infinity();
  b(1, 3) = std::numeric_limits<double>::quiet_NaN();
  const Matrix c = MatMul(a, b);
  const Matrix r = MatMulReference(a, b);
  EXPECT_TRUE(std::isnan(c(0, 2)) == std::isnan(r(0, 2)));
  EXPECT_TRUE(std::isnan(c(1, 3)));
}

// ---- Scalar oracles for the d x d kernels ----------------------------------
//
// Verbatim copies of the scalar loops the vectorized kernels replaced.

// MatVec: one Dot chain per row, from 0.0 over ascending k.
void OracleMatVec(const Matrix& a, const double* x, double* y) {
  for (int i = 0; i < a.rows(); ++i) {
    const double* row = a.Row(i);
    double s = 0.0;
    for (int k = 0; k < a.cols(); ++k) s += row[k] * x[k];
    y[i] = s;
  }
}

void OracleAddOuterProduct(Matrix* m, const double* v, double alpha) {
  for (int i = 0; i < m->rows(); ++i) {
    const double vi = alpha * v[i];
    if (vi == 0.0) continue;
    double* row = m->Row(i);
    for (int j = 0; j < m->cols(); ++j) row[j] += vi * v[j];
  }
}

void OracleAddScaled(Matrix* m, const Matrix& other, double alpha) {
  double* dst = m->data();
  const double* src = other.data();
  const size_t n = static_cast<size_t>(m->rows()) * m->cols();
  for (size_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

// tred2 with the column-strided p = A v and Q accumulation.
void OracleTridiagonalize(Matrix* a_ptr, std::vector<double>* diag,
                          std::vector<double>* sub) {
  Matrix& a = *a_ptr;
  const int n = a.rows();
  std::vector<double>& d = *diag;
  std::vector<double>& e = *sub;
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  for (int i = n - 1; i > 0; --i) {
    const int l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k <= l; ++k) scale += std::fabs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (int k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;
          g = 0.0;
          for (int k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (int k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          e[j] = g / h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) {
          f = a(i, j);
          g = e[j] - hh * f;
          e[j] = g;
          for (int k = 0; k <= j; ++k) {
            a(j, k) -= f * e[k] + g * a(i, k);
          }
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (int i = 0; i < n; ++i) {
    const int l = i - 1;
    if (d[i] != 0.0) {
      for (int j = 0; j <= l; ++j) {
        double g = 0.0;
        for (int k = 0; k <= l; ++k) g += a(i, k) * a(k, j);
        for (int k = 0; k <= l; ++k) a(k, j) -= g * a(k, i);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (int j = 0; j <= l; ++j) {
      a(j, i) = 0.0;
      a(i, j) = 0.0;
    }
  }
}

// Implicit-shift QL with the scalar Givens row rotation.
bool OracleTridiagonalQL(std::vector<double>* diag, std::vector<double>* sub,
                         Matrix* zt_ptr) {
  std::vector<double>& d = *diag;
  std::vector<double>& e = *sub;
  Matrix& zt = *zt_ptr;
  const int n = static_cast<int>(d.size());
  if (n == 0) return true;
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    while (true) {
      int m = l;
      while (m < n - 1) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= DBL_EPSILON * dd) break;
        ++m;
      }
      if (m == l) break;
      if (iter++ == 50) return false;
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      int i = m - 1;
      for (; i >= l; --i) {
        double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          d[i + 1] -= p;
          e[m] = 0.0;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        double* zi = zt.Row(i);
        double* zi1 = zt.Row(i + 1);
        for (int k = 0; k < n; ++k) {
          f = zi1[k];
          zi1[k] = s * zi[k] + c * f;
          zi[k] = c * zi[k] - s * f;
        }
      }
      if (r == 0.0 && i >= l) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
  return true;
}

// SymmetricEigen's QL path end to end: symmetrize, tred2, transpose, QL,
// descending sort. Returns false if QL did not converge (the production
// code would fall back to Jacobi; no input here gets near that).
bool OracleSymmetricEigen(const Matrix& input, EigenResult* out) {
  const int d = input.rows();
  Matrix a(d, d);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) a(i, j) = 0.5 * (input(i, j) + input(j, i));
  }
  std::vector<double> diag;
  std::vector<double> sub;
  OracleTridiagonalize(&a, &diag, &sub);
  Matrix zt(d, d);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) zt(i, j) = a(j, i);
  }
  if (!OracleTridiagonalQL(&diag, &sub, &zt)) return false;
  std::vector<int> order(d);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&diag](int i, int j) { return diag[i] > diag[j]; });
  out->values.resize(d);
  out->vectors = Matrix(d, d);
  for (int i = 0; i < d; ++i) {
    out->values[i] = diag[order[i]];
    out->vectors.SetRow(i, zt.Row(order[i]));
  }
  return true;
}

::testing::AssertionResult BitIdenticalVectors(const std::vector<double>& a,
                                               const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "length " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

Matrix SymmetricGaussian(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(d, d);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j <= i; ++j) {
      const double v = rng.NextGaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

struct EigenInput {
  std::string name;
  Matrix matrix;
};

// The input families of the d x d path: generic dense, already diagonal
// (tred2 takes its `scale == 0` branch on every row), zero, rank-1,
// block-diagonal (zero rows left of each block and QL block splits),
// slightly asymmetric (the symmetrization matters), and signed zeros.
std::vector<EigenInput> EigenInputs(int d) {
  const uint64_t seed = 9000 + static_cast<uint64_t>(d);
  std::vector<EigenInput> inputs;
  inputs.push_back({"gaussian", SymmetricGaussian(d, seed)});

  Rng rng(seed + 1);
  Matrix diagonal(d, d);
  for (int i = 0; i < d; ++i) diagonal(i, i) = rng.NextGaussian();
  inputs.push_back({"diagonal", diagonal});

  inputs.push_back({"zero", Matrix(d, d)});

  std::vector<double> u(d);
  for (double& x : u) x = rng.NextGaussian();
  Matrix rank1(d, d);
  rank1.AddOuterProduct(u.data(), 1.5);
  inputs.push_back({"rank1", rank1});

  const Matrix dense = SymmetricGaussian(d, seed + 2);
  Matrix blocks(d, d);
  for (int start = 0, size = 1; start < d; start += size, size = size % 5 + 1) {
    const int end = std::min(d, start + size);
    for (int i = start; i < end; ++i) {
      for (int j = start; j < end; ++j) blocks(i, j) = dense(i, j);
    }
  }
  inputs.push_back({"block_diagonal", blocks});

  Matrix asymmetric = SymmetricGaussian(d, seed + 3);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) asymmetric(i, j) += 1e-9 * rng.NextGaussian();
  }
  inputs.push_back({"slightly_asymmetric", asymmetric});

  Matrix signed_zeros = SymmetricGaussian(d, seed + 4);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j <= i; ++j) {
      if ((i + 2 * j) % 3 == 0) {
        signed_zeros(i, j) = -0.0;
        signed_zeros(j, i) = -0.0;
      }
    }
  }
  inputs.push_back({"some_negative_zeros", signed_zeros});

  Matrix all_negative_zero(d, d);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) all_negative_zero(i, j) = -0.0;
  }
  inputs.push_back({"all_negative_zero", all_negative_zero});
  return inputs;
}

class DenseKernelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DenseKernelEquivalence, SymmetricEigenBitIdenticalToScalarOracle) {
  const int d = GetParam();
  for (const EigenInput& input : EigenInputs(d)) {
    SCOPED_TRACE(input.name);
    EigenResult want;
    ASSERT_TRUE(OracleSymmetricEigen(input.matrix, &want));
    const EigenResult got = SymmetricEigen(input.matrix);
    EXPECT_TRUE(BitIdenticalVectors(got.values, want.values));
    EXPECT_TRUE(BitIdentical(got.vectors, want.vectors));
  }
}

TEST_P(DenseKernelEquivalence, MatVecBitIdenticalToScalarOracle) {
  const int d = GetParam();
  // Square, and ragged in both directions (rows not a multiple of the
  // 8-row block, columns not a multiple of the 4-wide transpose).
  for (const auto& [rows, cols] : {std::pair{d, d}, std::pair{d + 5, d + 3},
                                   std::pair{d + 8, 1}}) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    Rng rng(77 + static_cast<uint64_t>(d));
    std::vector<double> x(cols);
    for (double& xk : x) xk = rng.NextGaussian();
    for (const EigenInput& input : EigenInputs(std::max(rows, cols))) {
      SCOPED_TRACE(input.name);
      Matrix a(rows, cols);
      for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) a(i, j) = input.matrix(i, j);
      }
      std::vector<double> got(rows, 1.0);
      std::vector<double> want(rows, 2.0);
      MatVec(a, x.data(), got.data());
      OracleMatVec(a, x.data(), want.data());
      EXPECT_TRUE(BitIdenticalVectors(got, want));
    }
  }
}

TEST_P(DenseKernelEquivalence, RankOneAndScaledUpdatesBitIdenticalToOracle) {
  const int d = GetParam();
  for (const EigenInput& input : EigenInputs(d)) {
    SCOPED_TRACE(input.name);
    // v mixes zeros (skipped rows), signed zeros and Gaussian entries.
    Rng rng(31 + static_cast<uint64_t>(d));
    std::vector<double> v(d);
    for (int i = 0; i < d; ++i) {
      v[i] = (i % 4 == 1) ? 0.0 : (i % 4 == 2) ? -0.0 : rng.NextGaussian();
    }
    Matrix got = input.matrix;
    Matrix want = input.matrix;
    for (const double alpha : {1.0, -0.75, 1e-300}) {
      got.AddOuterProduct(v.data(), alpha);
      OracleAddOuterProduct(&want, v.data(), alpha);
      EXPECT_TRUE(BitIdentical(got, want)) << "AddOuterProduct alpha=" << alpha;
    }
    const Matrix other = SymmetricGaussian(d, 55 + static_cast<uint64_t>(d));
    for (const double alpha : {-1.0, 0.3}) {
      got.AddScaled(other, alpha);
      OracleAddScaled(&want, other, alpha);
      EXPECT_TRUE(BitIdentical(got, want)) << "AddScaled alpha=" << alpha;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DenseKernelEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 31,
                                           43, 127, 128, 129, 200));

// The symmetric part, as SymmetricEigen takes it.
Matrix SymmetricPart(const Matrix& a) {
  const int d = a.rows();
  Matrix s(d, d);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
  }
  return s;
}

double NormOf(const EigenResult& eig) {
  return std::max(std::fabs(eig.values.front()), std::fabs(eig.values.back()));
}

std::vector<double> GaussianVector(int d, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(d);
  for (double& x : v) x = rng.NextGaussian();
  return v;
}

// Runs Lanczos on m from `start` until it breaks down or takes max_steps.
void RunLanczos(const Matrix& m, const std::vector<double>& start,
                int max_steps, Lanczos* lanczos) {
  lanczos->Start(start.data(), m.rows(), max_steps);
  while (lanczos->Step(
      [&m](const double* x, double* y) { MatVec(m, x, y); })) {
  }
  ASSERT_TRUE(lanczos->SolveRitz());
}

class KrylovAgainstEigen : public ::testing::TestWithParam<int> {};

// Run to the end (breakdown or d steps), the extreme Ritz values are the
// extreme eigenvalues.
TEST_P(KrylovAgainstEigen, LanczosExtremeRitzValuesMatchEigenvalues) {
  const int d = GetParam();
  for (const EigenInput& input : EigenInputs(d)) {
    SCOPED_TRACE(input.name);
    const Matrix m = SymmetricPart(input.matrix);
    const EigenResult eig = SymmetricEigen(input.matrix);
    const double tol = 1e-12 * NormOf(eig);
    Lanczos lanczos;
    RunLanczos(m, GaussianVector(d, 70 + d), d, &lanczos);
    EXPECT_NEAR(lanczos.ritz_values().front(), eig.values.front(), tol);
    EXPECT_NEAR(lanczos.ritz_values().back(), eig.values.back(), tol);
    EXPECT_NEAR(std::fabs(lanczos.ritz_values()[lanczos.TopIndex()]),
                NormOf(eig), tol);
    // The extremes each step tracks in O(k) agree.
    EXPECT_NEAR(lanczos.max_ritz_value(), eig.values.front(), tol);
    EXPECT_NEAR(lanczos.min_ritz_value(), eig.values.back(), tol);
  }
}

// Part way through a run, each reported residual beta |s_k| is the true
// ||A y - theta y|| of its unit Ritz vector.
TEST_P(KrylovAgainstEigen, LanczosResidualsAreTrueResiduals) {
  const int d = GetParam();
  for (const EigenInput& input : EigenInputs(d)) {
    SCOPED_TRACE(input.name);
    const Matrix m = SymmetricPart(input.matrix);
    const double tol = 1e-10 * NormOf(SymmetricEigen(input.matrix));
    Lanczos lanczos;
    RunLanczos(m, GaussianVector(d, 80 + d), std::min(d, 8), &lanczos);
    std::vector<double> y(d);
    std::vector<double> my(d);
    for (int i = 0; i < lanczos.steps(); ++i) {
      lanczos.RitzVector(i, y.data());
      const double theta = lanczos.ritz_values()[i];
      MatVec(m, y.data(), my.data());
      Axpy(-theta, y.data(), my.data(), d);
      EXPECT_NEAR(std::sqrt(NormSquared(y.data(), d)), 1.0, 1e-12);
      EXPECT_NEAR(std::sqrt(NormSquared(my.data(), d)),
                  lanczos.residuals()[i], tol)
          << "pair " << i;
    }
    // The O(k) extremes and top Ritz vector are the QL's, part way too.
    EXPECT_NEAR(lanczos.max_ritz_value(), lanczos.ritz_values().front(), tol);
    EXPECT_NEAR(lanczos.min_ritz_value(), lanczos.ritz_values().back(), tol);
    const bool use_max = std::fabs(lanczos.max_ritz_value()) >=
                         std::fabs(lanczos.min_ritz_value());
    const int top = use_max ? 0 : lanczos.steps() - 1;
    lanczos.TopRitzVector(y.data());
    MatVec(m, y.data(), my.data());
    Axpy(-lanczos.ritz_values()[top], y.data(), my.data(), d);
    EXPECT_NEAR(std::sqrt(NormSquared(y.data(), d)), 1.0, 1e-12);
    EXPECT_NEAR(std::sqrt(NormSquared(my.data(), d)),
                lanczos.residuals()[top], tol);
  }
}

// Never true at or below the exact norm, even 1e-12 below it; true once
// theta clears the 1e-6 margin.
TEST_P(KrylovAgainstEigen, CertifyNormBelowNeverTrueBelowNorm) {
  const int d = GetParam();
  for (const EigenInput& input : EigenInputs(d)) {
    SCOPED_TRACE(input.name);
    const Matrix m = SymmetricPart(input.matrix);
    const double norm = NormOf(SymmetricEigen(input.matrix));
    for (const double sign : {1.0, -1.0}) {
      Matrix signed_m = m;
      signed_m.AddScaled(m, sign - 1.0);
      EXPECT_FALSE(CertifyNormBelow(signed_m, norm * (1.0 - 1e-12)));
      EXPECT_FALSE(CertifyNormBelow(signed_m, norm));
      EXPECT_FALSE(CertifyNormBelow(signed_m, norm * (1.0 + 1e-12)));
      EXPECT_TRUE(CertifyNormBelow(signed_m,
                                   norm > 0.0 ? norm * (1.0 + 1e-5) : 1e-300));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KrylovAgainstEigen,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 31,
                                           43, 127, 128, 129, 200));

// A start vector in an invariant subspace ends the run: one eigenvector
// after one step, the span of three after three, with exact Ritz pairs.
TEST(Lanczos, BreaksDownOnInvariantStart) {
  const int d = 43;
  const Matrix m = SymmetricGaussian(d, 17);
  const EigenResult eig = SymmetricEigen(m);
  const double tol = 1e-12 * NormOf(eig);
  Lanczos lanczos;
  std::vector<double> start(eig.vectors.Row(5), eig.vectors.Row(5) + d);
  RunLanczos(m, start, d, &lanczos);
  EXPECT_TRUE(lanczos.broke_down());
  EXPECT_EQ(lanczos.steps(), 1);
  EXPECT_NEAR(lanczos.ritz_values()[0], eig.values[5], tol);
  EXPECT_LE(lanczos.residuals()[0], tol);

  for (const int i : {2, 20, 40}) {
    Axpy(1.0 + i, eig.vectors.Row(i), start.data(), d);
  }
  Axpy(-1.0, eig.vectors.Row(5), start.data(), d);
  RunLanczos(m, start, d, &lanczos);
  EXPECT_TRUE(lanczos.broke_down());
  ASSERT_EQ(lanczos.steps(), 3);
  EXPECT_NEAR(lanczos.ritz_values()[0], eig.values[2], tol);
  EXPECT_NEAR(lanczos.ritz_values()[1], eig.values[20], tol);
  EXPECT_NEAR(lanczos.ritz_values()[2], eig.values[40], tol);
  for (const double r : lanczos.residuals()) EXPECT_LE(r, tol);
}

// Started near the top eigenvector, the top Ritz value converges in fewer
// steps than from a generic start, and to the same value.
TEST(Lanczos, WarmStartConvergesInFewerSteps) {
  const int d = 128;
  const Matrix m = SymmetricGaussian(d, 23);
  const EigenResult eig = SymmetricEigen(m);
  const double norm = NormOf(eig);
  const int top = std::fabs(eig.values.front()) >= std::fabs(eig.values.back())
                      ? 0
                      : d - 1;
  const auto steps_to_converge = [&m, norm, d](const std::vector<double>& v) {
    Lanczos lanczos;
    lanczos.Start(v.data(), d, d);
    while (lanczos.Step(
        [&m](const double* x, double* y) { MatVec(m, x, y); })) {
      EXPECT_TRUE(lanczos.SolveRitz());
      const double got =
          std::fabs(lanczos.ritz_values()[lanczos.TopIndex()]);
      if (std::fabs(got - norm) <= 1e-10 * norm) return lanczos.steps();
    }
    return d + 1;
  };
  const int cold = steps_to_converge(GaussianVector(d, 5));
  std::vector<double> warm(eig.vectors.Row(top), eig.vectors.Row(top) + d);
  const std::vector<double> noise = GaussianVector(d, 6);
  Axpy(1e-3, noise.data(), warm.data(), d);
  const int warm_steps = steps_to_converge(warm);
  EXPECT_LE(cold, d);
  EXPECT_LT(warm_steps, cold);
}

}  // namespace
}  // namespace dswm

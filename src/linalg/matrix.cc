#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace dswm {

#if defined(__AVX__)
namespace {

// (lo[0], lo[1], hi[0], hi[1]) from two 128-bit loads.
inline __m256d LoadHalves(const double* lo, const double* hi) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(lo)),
                              _mm_loadu_pd(hi), 1);
}

// acc += (r0[q], r1[q], r2[q], r3[q]) * x[q] for q = 0, 1, 2, 3 in turn:
// one lane per row, each lane a multiply then an add per step. The 4 x 4
// register transpose pairs half-rows of r0/r2 and r1/r3 and unpacks them.
inline __m256d AccumulateRows4(__m256d acc, const double* r0,
                               const double* r1, const double* r2,
                               const double* r3, const double* x) {
  const __m256d a01 = LoadHalves(r0, r2);          // r0[0] r0[1] r2[0] r2[1]
  const __m256d b01 = LoadHalves(r1, r3);          // r1[0] r1[1] r3[0] r3[1]
  const __m256d a23 = LoadHalves(r0 + 2, r2 + 2);  // r0[2] r0[3] r2[2] r2[3]
  const __m256d b23 = LoadHalves(r1 + 2, r3 + 2);  // r1[2] r1[3] r3[2] r3[3]
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_unpacklo_pd(a01, b01),
                                         _mm256_broadcast_sd(x)));
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_unpackhi_pd(a01, b01),
                                         _mm256_broadcast_sd(x + 1)));
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_unpacklo_pd(a23, b23),
                                         _mm256_broadcast_sd(x + 2)));
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_unpackhi_pd(a23, b23),
                                         _mm256_broadcast_sd(x + 3)));
  return acc;
}

}  // namespace
#endif

Matrix Matrix::Identity(int d) {
  Matrix m(d, d);
  for (int i = 0; i < d; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::Reserve(int rows) {
  DSWM_CHECK_GE(rows, 0);
  data_.reserve(static_cast<size_t>(rows) * cols_);
}

void Matrix::AppendRow(const double* src, int len) {
  if (rows_ == 0 && cols_ == 0) cols_ = len;
  DSWM_CHECK_EQ(len, cols_);
  data_.insert(data_.end(), src, src + len);
  ++rows_;
}

double Matrix::FrobeniusNormSquared() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

void Matrix::AddScaled(const Matrix& other, double alpha) {
  DSWM_CHECK_EQ(rows_, other.rows_);
  DSWM_CHECK_EQ(cols_, other.cols_);
  for (int i = 0; i < rows_; ++i) Axpy(alpha, other.Row(i), Row(i), cols_);
}

void Matrix::AddOuterProduct(const double* v, double alpha) {
  DSWM_CHECK_EQ(rows_, cols_);
  for (int i = 0; i < rows_; ++i) {
    const double vi = alpha * v[i];
    if (vi == 0.0) continue;
    Axpy(vi, v, Row(i), cols_);
  }
}

void Matrix::AddSparseOuterProduct(const double* v,
                                   const std::vector<int>& support,
                                   double alpha) {
  DSWM_CHECK_EQ(rows_, cols_);
  for (int i : support) {
    const double vi = alpha * v[i];
    double* row = Row(i);
    for (int j : support) row[j] += vi * v[j];
  }
}

double Dot(const double* x, const double* y, int n) {
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

double NormSquared(const double* x, int n) {
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += x[i] * x[i];
  return s;
}

void Axpy(double alpha, const double* x, double* y, int n) {
  int i = 0;
#if defined(__AVX__)
  // Per lane the multiply, then the add, of the scalar tail statement.
  const __m256d va = _mm256_set1_pd(alpha);
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), p));
  }
#endif
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(double* x, int n, double alpha) {
  for (int i = 0; i < n; ++i) x[i] *= alpha;
}

void MatVec(const Matrix& a, const double* x, double* y) {
  const int m = a.rows();
  const int n = a.cols();
  int i = 0;
#if defined(__AVX__)
  // Eight rows per block, one row per lane of two accumulators. Each lane
  // runs Dot's chain -- from 0.0, add row[k] * x[k] for ascending k -- so
  // y is bit-identical to the per-row Dot of the tail loop, with two
  // independent vector chains in flight instead of one scalar chain.
  for (; i + 8 <= m; i += 8) {
    const double* r0 = a.Row(i);
    const double* r1 = a.Row(i + 1);
    const double* r2 = a.Row(i + 2);
    const double* r3 = a.Row(i + 3);
    const double* r4 = a.Row(i + 4);
    const double* r5 = a.Row(i + 5);
    const double* r6 = a.Row(i + 6);
    const double* r7 = a.Row(i + 7);
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    int k = 0;
    for (; k + 4 <= n; k += 4) {
      acc0 = AccumulateRows4(acc0, r0 + k, r1 + k, r2 + k, r3 + k, x + k);
      acc1 = AccumulateRows4(acc1, r4 + k, r5 + k, r6 + k, r7 + k, x + k);
    }
    for (; k < n; ++k) {
      const __m256d xk = _mm256_broadcast_sd(x + k);
      const __m256d lo = _mm256_set_pd(r3[k], r2[k], r1[k], r0[k]);
      const __m256d hi = _mm256_set_pd(r7[k], r6[k], r5[k], r4[k]);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(lo, xk));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(hi, xk));
    }
    _mm256_storeu_pd(y + i, acc0);
    _mm256_storeu_pd(y + i + 4, acc1);
  }
#endif
  for (; i < m; ++i) y[i] = Dot(a.Row(i), x, n);
}

void MatTVec(const Matrix& a, const double* x, double* y) {
  std::fill(y, y + a.cols(), 0.0);
  for (int i = 0; i < a.rows(); ++i) Axpy(x[i], a.Row(i), y, a.cols());
}

// ---- Blocked kernels -------------------------------------------------------
//
// Geometry: each output tile holds kMr x kNr accumulators in registers and
// sums its reduction in ascending index order as one chain per element
// (never split across partial accumulators). Partial flushes store and
// reload exact doubles, so blocked, threaded, and naive results agree
// bitwise for finite inputs. Parallelism distributes whole row-tiles of
// the output; reductions are never split across threads.

namespace {

// Micro-tile rows / cols. Under AVX (4 doubles per ymm) the 4 x 8
// accumulator tile occupies 8 of the 16 vector registers with room left
// for the A broadcasts and B loads; a wider tile spills the accumulators
// to the stack and halves throughput. The portable build uses scalar
// 4 x 4 tiles. DSWM_AVX=ON (the default) builds this file with -mavx but
// never -mfma: every vector op is per-lane IEEE mul/add, so results stay
// bit-identical across the AVX and portable bodies.
constexpr int kMr = 4;
#if defined(__AVX__)
constexpr int kNr = 8;
#else
constexpr int kNr = 4;
#endif
// Reduction slice processed between flushes of an output tile. Bounds the
// working set of the k-blocked kernels: a kKc x kNr B panel (16 KiB under
// AVX) stays L1-resident across all row tiles of a panel, and a
// kKc-column slice of A stays in L2 across panels.
constexpr int kKc = 256;
// Below this many multiply-adds the thread pool is not consulted.
constexpr long kParallelMulAddThreshold = 1L << 16;

[[nodiscard]] bool UsePool(const ThreadPool* pool, long mul_adds) {
  return pool->num_threads() > 1 && mul_adds >= kParallelMulAddThreshold;
}

// One multiply-accumulate step of an accumulator chain: a separate
// per-lane IEEE multiply and add (a subtract under kSubtract, the
// Cholesky update's step), never fused, so results stay bit-identical
// across the AVX and portable bodies.
#if defined(__AVX__)
template <bool kSubtract = false>
inline __m256d MulAdd(__m256d acc, __m256d a, __m256d b) {
  const __m256d p = _mm256_mul_pd(a, b);
  return kSubtract ? _mm256_sub_pd(acc, p) : _mm256_add_pd(acc, p);
}
#endif

// C[i0:i0+kMr) x [j0:j0+kNr) += A[i0:i0+kMr, k0:k1) * B[k0:k1, j0:j0+kNr)
// with the partial sums held in registers (interior tiles only). `first`
// starts the accumulator chains at zero; later k blocks reload the exact
// stored partials, so the per-element chain is one ascending-k sum.
//
// The AVX body is element-wise identical to the scalar one: vmulpd/vaddpd
// are per-lane IEEE operations and intrinsics are never contracted to FMA,
// so each output element still accumulates as the same ascending-k chain.
#if defined(__AVX__)
// `bp` is the panel-major packed copy of B[k0:k1, j0:j0+kNr): kNr
// consecutive doubles per k, k ascending — sequential loads in the hot
// loop instead of a strided walk of B.
inline void MatMulTileFull(const Matrix& a, const double* bp, Matrix* c,
                           int i0, int j0, int k0, int k1, bool first) {
  const double* bk = bp;
  const double* a0 = a.Row(i0) + k0;
  const double* a1 = a.Row(i0 + 1) + k0;
  const double* a2 = a.Row(i0 + 2) + k0;
  const double* a3 = a.Row(i0 + 3) + k0;
  __m256d c00, c01, c10, c11, c20, c21, c30, c31;
  if (first) {
    c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = _mm256_setzero_pd();
  } else {
    const double* r0 = c->Row(i0) + j0;
    const double* r1 = c->Row(i0 + 1) + j0;
    const double* r2 = c->Row(i0 + 2) + j0;
    const double* r3 = c->Row(i0 + 3) + j0;
    c00 = _mm256_loadu_pd(r0);
    c01 = _mm256_loadu_pd(r0 + 4);
    c10 = _mm256_loadu_pd(r1);
    c11 = _mm256_loadu_pd(r1 + 4);
    c20 = _mm256_loadu_pd(r2);
    c21 = _mm256_loadu_pd(r2 + 4);
    c30 = _mm256_loadu_pd(r3);
    c31 = _mm256_loadu_pd(r3 + 4);
  }
  const int len = k1 - k0;
  for (int k = 0; k < len; ++k) {
    const __m256d b0 = _mm256_loadu_pd(bk);
    const __m256d b1 = _mm256_loadu_pd(bk + 4);
    __m256d av = _mm256_broadcast_sd(a0 + k);
    c00 = MulAdd(c00, av, b0);
    c01 = MulAdd(c01, av, b1);
    av = _mm256_broadcast_sd(a1 + k);
    c10 = MulAdd(c10, av, b0);
    c11 = MulAdd(c11, av, b1);
    av = _mm256_broadcast_sd(a2 + k);
    c20 = MulAdd(c20, av, b0);
    c21 = MulAdd(c21, av, b1);
    av = _mm256_broadcast_sd(a3 + k);
    c30 = MulAdd(c30, av, b0);
    c31 = MulAdd(c31, av, b1);
    bk += kNr;
  }
  double* o0 = c->Row(i0) + j0;
  double* o1 = c->Row(i0 + 1) + j0;
  double* o2 = c->Row(i0 + 2) + j0;
  double* o3 = c->Row(i0 + 3) + j0;
  _mm256_storeu_pd(o0, c00);
  _mm256_storeu_pd(o0 + 4, c01);
  _mm256_storeu_pd(o1, c10);
  _mm256_storeu_pd(o1 + 4, c11);
  _mm256_storeu_pd(o2, c20);
  _mm256_storeu_pd(o2 + 4, c21);
  _mm256_storeu_pd(o3, c30);
  _mm256_storeu_pd(o3 + 4, c31);
}
#else
inline void MatMulTileFull(const Matrix& a, const Matrix& b, Matrix* c,
                           int i0, int j0, int k0, int k1, bool first) {
  const size_t bstride = b.cols();
  const double* bk = b.data() + static_cast<size_t>(k0) * bstride + j0;
  const double* a0 = a.Row(i0) + k0;
  const double* a1 = a.Row(i0 + 1) + k0;
  const double* a2 = a.Row(i0 + 2) + k0;
  const double* a3 = a.Row(i0 + 3) + k0;
  double acc[kMr][kNr] = {};
  if (!first) {
    for (int r = 0; r < kMr; ++r) {
      const double* crow = c->Row(i0 + r) + j0;
      for (int n = 0; n < kNr; ++n) acc[r][n] = crow[n];
    }
  }
  const int len = k1 - k0;
  for (int k = 0; k < len; ++k) {
    const double av0 = a0[k];
    const double av1 = a1[k];
    const double av2 = a2[k];
    const double av3 = a3[k];
    for (int n = 0; n < kNr; ++n) {
      const double bv = bk[n];
      acc[0][n] += av0 * bv;
      acc[1][n] += av1 * bv;
      acc[2][n] += av2 * bv;
      acc[3][n] += av3 * bv;
    }
    bk += bstride;
  }
  for (int r = 0; r < kMr; ++r) {
    double* crow = c->Row(i0 + r) + j0;
    for (int n = 0; n < kNr; ++n) crow[n] = acc[r][n];
  }
}
#endif  // defined(__AVX__)

// Edge tile with runtime mr x nr bounds (same per-element chains).
inline void MatMulTileEdge(const Matrix& a, const Matrix& b, Matrix* c,
                           int i0, int mr, int j0, int nr, int k0, int k1,
                           bool first) {
  const size_t bstride = b.cols();
  const double* bk = b.data() + static_cast<size_t>(k0) * bstride + j0;
  const double* arow[kMr];
  for (int r = 0; r < mr; ++r) arow[r] = a.Row(i0 + r) + k0;
  double acc[kMr][kNr] = {};
  if (!first) {
    for (int r = 0; r < mr; ++r) {
      const double* crow = c->Row(i0 + r) + j0;
      for (int n = 0; n < nr; ++n) acc[r][n] = crow[n];
    }
  }
  const int len = k1 - k0;
  for (int k = 0; k < len; ++k) {
    for (int r = 0; r < mr; ++r) {
      const double av = arow[r][k];
      for (int n = 0; n < nr; ++n) acc[r][n] += av * bk[n];
    }
    bk += bstride;
  }
  for (int r = 0; r < mr; ++r) {
    double* crow = c->Row(i0 + r) + j0;
    for (int n = 0; n < nr; ++n) crow[n] = acc[r][n];
  }
}

// Accumulates rows [r0, r1) of `a` into the kMr x kNr tile of `g` at
// (i0, j0): g_tile += sum_r a(r, i0:)^T a(r, j0:), or -= under kSubtract.
// Adds onto the existing tile so the SYRK kernel can flush between row
// blocks (interior tiles). `g` may be `a` itself when rows [r0, r1) lie
// above the tile (the Cholesky update).
#if defined(__AVX__)
template <bool kSubtract = false>
inline void SyrkTileFull(const Matrix& a, int r0, int r1, Matrix* g, int i0,
                         int j0) {
  double* o0 = g->Row(i0) + j0;
  double* o1 = g->Row(i0 + 1) + j0;
  double* o2 = g->Row(i0 + 2) + j0;
  double* o3 = g->Row(i0 + 3) + j0;
  __m256d c00 = _mm256_loadu_pd(o0);
  __m256d c01 = _mm256_loadu_pd(o0 + 4);
  __m256d c10 = _mm256_loadu_pd(o1);
  __m256d c11 = _mm256_loadu_pd(o1 + 4);
  __m256d c20 = _mm256_loadu_pd(o2);
  __m256d c21 = _mm256_loadu_pd(o2 + 4);
  __m256d c30 = _mm256_loadu_pd(o3);
  __m256d c31 = _mm256_loadu_pd(o3 + 4);
  for (int r = r0; r < r1; ++r) {
    const double* ar = a.Row(r);
    const __m256d b0 = _mm256_loadu_pd(ar + j0);
    const __m256d b1 = _mm256_loadu_pd(ar + j0 + 4);
    const double* ai = ar + i0;
    __m256d av = _mm256_broadcast_sd(ai);
    c00 = MulAdd<kSubtract>(c00, av, b0);
    c01 = MulAdd<kSubtract>(c01, av, b1);
    av = _mm256_broadcast_sd(ai + 1);
    c10 = MulAdd<kSubtract>(c10, av, b0);
    c11 = MulAdd<kSubtract>(c11, av, b1);
    av = _mm256_broadcast_sd(ai + 2);
    c20 = MulAdd<kSubtract>(c20, av, b0);
    c21 = MulAdd<kSubtract>(c21, av, b1);
    av = _mm256_broadcast_sd(ai + 3);
    c30 = MulAdd<kSubtract>(c30, av, b0);
    c31 = MulAdd<kSubtract>(c31, av, b1);
  }
  _mm256_storeu_pd(o0, c00);
  _mm256_storeu_pd(o0 + 4, c01);
  _mm256_storeu_pd(o1, c10);
  _mm256_storeu_pd(o1 + 4, c11);
  _mm256_storeu_pd(o2, c20);
  _mm256_storeu_pd(o2 + 4, c21);
  _mm256_storeu_pd(o3, c30);
  _mm256_storeu_pd(o3 + 4, c31);
}
#endif  // defined(__AVX__)

// Runtime-bounded SYRK tile; also the interior fallback without AVX.
template <bool kSubtract = false>
inline void SyrkTile(const Matrix& a, int r0, int r1, Matrix* g, int i0,
                     int mr, int j0, int nr) {
  double acc[kMr][kNr];
  for (int p = 0; p < mr; ++p) {
    const double* grow = g->Row(i0 + p) + j0;
    for (int q = 0; q < nr; ++q) acc[p][q] = grow[q];
  }
  for (int r = r0; r < r1; ++r) {
    const double* ar = a.Row(r);
    const double* ai = ar + i0;
    const double* aj = ar + j0;
    for (int p = 0; p < mr; ++p) {
      const double av = ai[p];
      for (int q = 0; q < nr; ++q) {
        if constexpr (kSubtract) {
          acc[p][q] -= av * aj[q];
        } else {
          acc[p][q] += av * aj[q];
        }
      }
    }
  }
  for (int p = 0; p < mr; ++p) {
    double* grow = g->Row(i0 + p) + j0;
    for (int q = 0; q < nr; ++q) grow[q] = acc[p][q];
  }
}

// Full-reduction kMr x kNr tile of A A^T: acc[p][q] = <row i0+p, row j0+q>
// (interior tiles). Vectorization is across the 16 independent elements
// (the j rows are gathered pairwise); each element's reduction is still
// one scalar ascending-k chain.
#if defined(__AVX__)
inline void GramTileFull(const Matrix& a, Matrix* g, int i0, int j0) {
  const int d = a.cols();
  const double* ai0 = a.Row(i0);
  const double* ai1 = a.Row(i0 + 1);
  const double* ai2 = a.Row(i0 + 2);
  const double* ai3 = a.Row(i0 + 3);
  const double* aj0 = a.Row(j0);
  const double* aj1 = a.Row(j0 + 1);
  const double* aj2 = a.Row(j0 + 2);
  const double* aj3 = a.Row(j0 + 3);
  const double* aj4 = a.Row(j0 + 4);
  const double* aj5 = a.Row(j0 + 5);
  const double* aj6 = a.Row(j0 + 6);
  const double* aj7 = a.Row(j0 + 7);
  __m256d c00 = _mm256_setzero_pd();
  __m256d c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd();
  __m256d c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd();
  __m256d c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd();
  __m256d c31 = _mm256_setzero_pd();
  for (int k = 0; k < d; ++k) {
    const __m256d b0 = _mm256_set_pd(aj3[k], aj2[k], aj1[k], aj0[k]);
    const __m256d b1 = _mm256_set_pd(aj7[k], aj6[k], aj5[k], aj4[k]);
    __m256d av = _mm256_broadcast_sd(ai0 + k);
    c00 = MulAdd(c00, av, b0);
    c01 = MulAdd(c01, av, b1);
    av = _mm256_broadcast_sd(ai1 + k);
    c10 = MulAdd(c10, av, b0);
    c11 = MulAdd(c11, av, b1);
    av = _mm256_broadcast_sd(ai2 + k);
    c20 = MulAdd(c20, av, b0);
    c21 = MulAdd(c21, av, b1);
    av = _mm256_broadcast_sd(ai3 + k);
    c30 = MulAdd(c30, av, b0);
    c31 = MulAdd(c31, av, b1);
  }
  double* o0 = g->Row(i0) + j0;
  double* o1 = g->Row(i0 + 1) + j0;
  double* o2 = g->Row(i0 + 2) + j0;
  double* o3 = g->Row(i0 + 3) + j0;
  _mm256_storeu_pd(o0, c00);
  _mm256_storeu_pd(o0 + 4, c01);
  _mm256_storeu_pd(o1, c10);
  _mm256_storeu_pd(o1 + 4, c11);
  _mm256_storeu_pd(o2, c20);
  _mm256_storeu_pd(o2 + 4, c21);
  _mm256_storeu_pd(o3, c30);
  _mm256_storeu_pd(o3 + 4, c31);
}
#endif  // defined(__AVX__)

// Runtime-bounded Gram tile; also the interior fallback without AVX.
inline void GramTile(const Matrix& a, Matrix* g, int i0, int mr, int j0,
                     int nr) {
  const int d = a.cols();
  const double* ai[kMr];
  const double* aj[kNr];
  for (int p = 0; p < mr; ++p) ai[p] = a.Row(i0 + p);
  for (int q = 0; q < nr; ++q) aj[q] = a.Row(j0 + q);
  double acc[kMr][kNr] = {};
  for (int k = 0; k < d; ++k) {
    for (int p = 0; p < mr; ++p) {
      const double av = ai[p][k];
      for (int q = 0; q < nr; ++q) acc[p][q] += av * aj[q][k];
    }
  }
  for (int p = 0; p < mr; ++p) {
    double* grow = g->Row(i0 + p) + j0;
    for (int q = 0; q < nr; ++q) grow[q] = acc[p][q];
  }
}

// Copies the (computed) upper triangle onto the lower one. Tiles
// straddling the diagonal compute a few lower entries directly; products
// commute exactly, so the overwrite is value-identical.
void MirrorLowerFromUpper(Matrix* g) {
  const int d = g->rows();
  for (int i = 0; i < d; ++i) {
    const double* upper = g->Row(i);
    for (int j = i + 1; j < d; ++j) (*g)(j, i) = upper[j];
  }
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  DSWM_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  const int m = a.rows();
  const int p = b.cols();
  const int kk = a.cols();
  if (m == 0 || p == 0 || kk == 0) return c;

  const int row_tiles = (m + kMr - 1) / kMr;
  ThreadPool* pool = ThreadPool::Global();
  const long mul_adds = static_cast<long>(m) * p * kk;
  DSWM_OBS_COUNT("linalg.matmul.calls", 1);
  DSWM_OBS_COUNT("linalg.matmul.flops", 2 * mul_adds);
  const bool parallel = UsePool(pool, mul_adds);

#if defined(__AVX__)
  // Pack the full-width panels of B into panel-major layout (kNr doubles
  // per k, k ascending, panels consecutive): an exact element copy that
  // turns the hot loop's strided B walk into sequential loads. The ragged
  // last panel (p % kNr columns) goes through the edge kernel against the
  // original B.
  const int full_panels = p / kNr;
  std::vector<double> packed(static_cast<size_t>(full_panels) * kk * kNr);
  const size_t bstride = b.cols();
  for (int jp = 0; jp < full_panels; ++jp) {
    double* dst = packed.data() + static_cast<size_t>(jp) * kk * kNr;
    const double* src = b.data() + static_cast<size_t>(jp) * kNr;
    for (int k = 0; k < kk; ++k) {
      for (int n = 0; n < kNr; ++n) dst[n] = src[n];
      dst += kNr;
      src += bstride;
    }
  }
#endif

  // k blocks run sequentially (each element's chain stays ascending in k);
  // within a block, whole row-tiles are distributed over threads. Panels of
  // B iterate outermost inside a chunk so each kKc x kNr panel stays hot
  // across every row tile of the chunk.
  for (int k0 = 0; k0 < kk; k0 += kKc) {
    const int k1 = std::min(kk, k0 + kKc);
    const bool first = k0 == 0;
#if defined(__AVX__)
    const double* pk = packed.data();
    const auto run = [&a, &b, &c, pk, kk, m, p, k0, k1, first](int t0,
                                                              int t1) {
      for (int j0 = 0; j0 < p; j0 += kNr) {
        const int nr = std::min(kNr, p - j0);
        const double* bp = pk +
                           static_cast<size_t>(j0 / kNr) * kk * kNr +
                           static_cast<size_t>(k0) * kNr;
        for (int t = t0; t < t1; ++t) {
          const int i0 = t * kMr;
          const int mr = std::min(kMr, m - i0);
          if (mr == kMr && nr == kNr) {
            MatMulTileFull(a, bp, &c, i0, j0, k0, k1, first);
          } else {
            MatMulTileEdge(a, b, &c, i0, mr, j0, nr, k0, k1, first);
          }
        }
      }
    };
#else
    const auto run = [&a, &b, &c, m, p, k0, k1, first](int t0, int t1) {
      for (int j0 = 0; j0 < p; j0 += kNr) {
        const int nr = std::min(kNr, p - j0);
        for (int t = t0; t < t1; ++t) {
          const int i0 = t * kMr;
          const int mr = std::min(kMr, m - i0);
          if (mr == kMr && nr == kNr) {
            MatMulTileFull(a, b, &c, i0, j0, k0, k1, first);
          } else {
            MatMulTileEdge(a, b, &c, i0, mr, j0, nr, k0, k1, first);
          }
        }
      }
    };
#endif
    if (parallel) {
      pool->ParallelFor(row_tiles, run);
    } else {
      run(0, row_tiles);
    }
  }
  return c;
}

Matrix MatMulReference(const Matrix& a, const Matrix& b) {
  DSWM_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    const double* ar = a.Row(i);
    double* cr = c.Row(i);
    for (int k = 0; k < a.cols(); ++k) {
      Axpy(ar[k], b.Row(k), cr, b.cols());
    }
  }
  return c;
}

Matrix GramTransposePrefix(const Matrix& a, int rows) {
  DSWM_CHECK_GE(rows, 0);
  DSWM_CHECK_LE(rows, a.rows());
  const int d = a.cols();
  Matrix g(d, d);
  if (d == 0 || rows == 0) return g;

  ThreadPool* pool = ThreadPool::Global();
  const long mul_adds = static_cast<long>(rows) * d * (d + 1) / 2;
  DSWM_OBS_COUNT("linalg.gram_transpose.calls", 1);
  DSWM_OBS_COUNT("linalg.gram_transpose.flops", 2 * mul_adds);
  const bool parallel = UsePool(pool, mul_adds);
  const int row_tiles = (d + kMr - 1) / kMr;

  // Upper-triangle tiles only; row blocks of the reduction are processed
  // in order so each element's chain stays ascending across flushes.
  for (int r0 = 0; r0 < rows; r0 += kKc) {
    const int r1 = std::min(rows, r0 + kKc);
    const auto run = [&a, &g, d, r0, r1](int t0, int t1) {
      for (int t = t0; t < t1; ++t) {
        const int i0 = t * kMr;
        const int mr = std::min(kMr, d - i0);
        for (int j0 = (i0 / kNr) * kNr; j0 < d; j0 += kNr) {
          const int nr = std::min(kNr, d - j0);
#if defined(__AVX__)
          if (mr == kMr && nr == kNr) {
            SyrkTileFull(a, r0, r1, &g, i0, j0);
            continue;
          }
#endif
          SyrkTile(a, r0, r1, &g, i0, mr, j0, nr);
        }
      }
    };
    if (parallel) {
      pool->ParallelFor(row_tiles, run);
    } else {
      run(0, row_tiles);
    }
  }
  MirrorLowerFromUpper(&g);
  return g;
}

Matrix GramTranspose(const Matrix& a) {
  return GramTransposePrefix(a, a.rows());
}

bool ShiftedCholesky(const Matrix& m, double shift, double sign, Matrix* u) {
  const int d = m.rows();
  DSWM_CHECK_EQ(m.cols(), d);
  DSWM_CHECK(u->rows() == d && u->cols() == d);
  for (int i = 0; i < d; ++i) {
    const double* mi = m.Row(i);
    double* ui = u->Row(i);
    for (int j = i; j < d; ++j) ui[j] = sign * mi[j];
    ui[i] += shift;
  }
  // Left-looking by panels of kMr rows. Each panel row first loses the
  // terms of every finished row above the panel, k ascending, through the
  // SYRK tiles run with a subtract; then the panel is factored
  // right-looking, each row losing the terms of the panel rows above it
  // before its pivot divides it. Every upper element thus subtracts its
  // terms in ascending k and then divides by its pivot, as an unblocked
  // right-looking factorization would. Panels end at row d, so only the
  // first, which has nothing to subtract, may be short; column tiles end
  // at column d, so the first starts up to kNr - 1 columns left of the
  // panel's diagonal. Those columns, and the tiles' other entries below
  // the diagonal, are scratch, cleared at the end; only when the first
  // tile would start left of column 0 is it cut to an edge tile.
  const int first_panel = d % kMr == 0 ? std::min(d, kMr) : d % kMr;
  for (int k0 = 0, k1 = first_panel; k0 < d; k0 = k1, k1 += kMr) {
    if (k0 > 0) {
      int j0 = d - kNr * ((d - k0 + kNr - 1) / kNr);
      if (j0 < 0) {
        SyrkTile<true>(*u, 0, k0, u, k0, kMr, k0, j0 + kNr - k0);
        j0 += kNr;
      }
      for (; j0 < d; j0 += kNr) {
#if defined(__AVX__)
        SyrkTileFull<true>(*u, 0, k0, u, k0, j0);
#else
        SyrkTile<true>(*u, 0, k0, u, k0, kMr, j0, kNr);
#endif
      }
    }
    for (int k = k0; k < k1; ++k) {
      double* uk = u->Row(k);
      if (!(uk[k] > 0.0)) return false;  // also rejects NaN
      const double pivot = std::sqrt(uk[k]);
      for (int j = k; j < d; ++j) uk[j] /= pivot;
      for (int i = k + 1; i < k1; ++i) {
        Axpy(-uk[i], uk + i, u->Row(i) + i, d - i);
      }
    }
  }
  for (int i = 1; i < d; ++i) std::fill(u->Row(i), u->Row(i) + i, 0.0);
  return true;
}

Matrix GramTransposeReference(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (int i = 0; i < a.rows(); ++i) g.AddOuterProduct(a.Row(i), 1.0);
  return g;
}

Matrix GramPrefix(const Matrix& a, int rows) {
  DSWM_CHECK_GE(rows, 0);
  DSWM_CHECK_LE(rows, a.rows());
  Matrix g(rows, rows);
  if (rows == 0 || a.cols() == 0) return g;

  ThreadPool* pool = ThreadPool::Global();
  const long mul_adds = static_cast<long>(rows) * (rows + 1) / 2 * a.cols();
  DSWM_OBS_COUNT("linalg.gram.calls", 1);
  DSWM_OBS_COUNT("linalg.gram.flops", 2 * mul_adds);
  const int row_tiles = (rows + kMr - 1) / kMr;
  const auto run = [&a, &g, rows](int t0, int t1) {
    for (int t = t0; t < t1; ++t) {
      const int i0 = t * kMr;
      const int mr = std::min(kMr, rows - i0);
      for (int j0 = (i0 / kNr) * kNr; j0 < rows; j0 += kNr) {
        const int nr = std::min(kNr, rows - j0);
#if defined(__AVX__)
        if (mr == kMr && nr == kNr) {
          GramTileFull(a, &g, i0, j0);
          continue;
        }
#endif
        GramTile(a, &g, i0, mr, j0, nr);
      }
    }
  };
  if (UsePool(pool, mul_adds)) {
    pool->ParallelFor(row_tiles, run);
  } else {
    run(0, row_tiles);
  }
  MirrorLowerFromUpper(&g);
  return g;
}

Matrix Gram(const Matrix& a) { return GramPrefix(a, a.rows()); }

Matrix GramReference(const Matrix& a) {
  Matrix g(a.rows(), a.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = i; j < a.rows(); ++j) {
      const double d = Dot(a.Row(i), a.Row(j), a.cols());
      g(i, j) = d;
      g(j, i) = d;
    }
  }
  return g;
}

}  // namespace dswm

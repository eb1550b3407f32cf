#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "obs/metrics.h"

namespace dswm {

namespace {

// Row kernels of the d x d path, next to Axpy (linalg/matrix.h). Each
// output element gets exactly the operations of the scalar statement in
// the tail loop, in the same order: the AVX bodies are per-lane IEEE
// multiply/add/subtract (this file is built with -mavx, never -mfma), so
// the AVX and scalar bodies agree bit for bit. The scalar loop is the tail
// and, in a non-AVX build, the whole body.

// tred2's rank-2 row update: row[k] -= f * w[k] + g * v[k], k in [0, n).
inline void Rank2Row(double f, double g, const double* w, const double* v,
                     double* row, int n) {
  int k = 0;
#if defined(__AVX__)
  const __m256d vf = _mm256_set1_pd(f);
  const __m256d vg = _mm256_set1_pd(g);
  for (; k + 4 <= n; k += 4) {
    const __m256d s =
        _mm256_add_pd(_mm256_mul_pd(vf, _mm256_loadu_pd(w + k)),
                      _mm256_mul_pd(vg, _mm256_loadu_pd(v + k)));
    _mm256_storeu_pd(row + k, _mm256_sub_pd(_mm256_loadu_pd(row + k), s));
  }
#endif
  for (; k < n; ++k) row[k] -= f * w[k] + g * v[k];
}

// Givens rotation of two rows: (x, y) <- (c x - s y, s x + c y).
inline void RotateRows(double s, double c, double* x, double* y, int n) {
  int k = 0;
#if defined(__AVX__)
  const __m256d vs = _mm256_set1_pd(s);
  const __m256d vc = _mm256_set1_pd(c);
  for (; k + 4 <= n; k += 4) {
    const __m256d xk = _mm256_loadu_pd(x + k);
    const __m256d yk = _mm256_loadu_pd(y + k);
    _mm256_storeu_pd(y + k, _mm256_add_pd(_mm256_mul_pd(vs, xk),
                                          _mm256_mul_pd(vc, yk)));
    _mm256_storeu_pd(x + k, _mm256_sub_pd(_mm256_mul_pd(vc, xk),
                                          _mm256_mul_pd(vs, yk)));
  }
#endif
  for (; k < n; ++k) {
    const double f = y[k];
    y[k] = s * x[k] + c * f;
    x[k] = c * x[k] - s * f;
  }
}

// Sum of squares of strictly-off-diagonal entries.
double OffDiagonalMass(const Matrix& a) {
  double s = 0.0;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      if (i != j) s += a(i, j) * a(i, j);
    }
  }
  return s;
}

// Householder reduction of the symmetric matrix `a` (destroyed) to
// tridiagonal form T = Q^T A Q. On return diag[i] = T(i,i), sub[i] =
// T(i,i-1) (sub[0] = 0), and `a` holds the accumulated orthogonal Q with
// the basis vectors as columns. Classic tred2 recurrence (EISPACK
// lineage): for each trailing row a Householder reflector annihilates the
// entries left of the subdiagonal, and the rank-2 symmetric update
// A <- A - v w^T - w v^T is applied to the leading block.
void Tridiagonalize(Matrix* a_ptr, std::vector<double>* diag,
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
      double* const v = a.Row(i);
      for (int k = 0; k <= l; ++k) scale += std::fabs(v[k]);
      if (scale == 0.0) {
        // Row already annihilated; nothing to reflect.
        e[i] = v[l];
      } else {
        // Scaled Householder vector, stored in row i of `a`.
        for (int k = 0; k <= l; ++k) {
          v[k] /= scale;
          h += v[k] * v[k];
        }
        double f = v[l];
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        v[l] = f - g;
        // p = A v / h into e[0..l]; f = v^T p. Only the lower triangle of
        // A is live, so p_j = sum_k v_k * (k <= j ? a(j,k) : a(k,j)), one
        // chain from 0.0 over ascending k. Its row part (k <= j) runs per
        // j; the column part (k > j) is then added row by row, k
        // ascending, so A is read along rows and each chain keeps its
        // order.
        for (int j = 0; j <= l; ++j) {
          const double* aj = a.Row(j);
          g = 0.0;
          for (int k = 0; k <= j; ++k) g += aj[k] * v[k];
          e[j] = g;
        }
        for (int k = 1; k <= l; ++k) Axpy(v[k], a.Row(k), e.data(), k);
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          a(j, i) = v[j] / h;
          e[j] /= h;
          f += e[j] * v[j];
        }
        // w = p - (v^T p / 2h) v, then the rank-2 update
        // a(j,k) -= v_j w_k + w_j v_k on the lower triangle of the leading
        // block. Row j reads w only at k <= j, so every w is formed first.
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) e[j] -= hh * v[j];
        for (int j = 0; j <= l; ++j) {
          Rank2Row(v[j], e[j], e.data(), v, a.Row(j), j + 1);
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulate the product of the reflectors into `a` (columns of Q): for
  // each j < i, g_j = sum_k a(i,k) a(k,j), then column j -= g_j * column
  // i. Column j's update writes nothing a later g_j' reads (row i and
  // column j' lie outside it), so every g_j is summed first, by row-wise
  // axpys with each chain still ascending in k, and the update then runs
  // row by row. It is an Axpy by -a(k,i): IEEE defines x - y as x + (-y),
  // and negating a product is exact, so each element is unchanged.
  std::vector<double> g(n);
  for (int i = 0; i < n; ++i) {
    const int l = i - 1;
    if (d[i] != 0.0) {
      std::fill(g.begin(), g.begin() + i, 0.0);
      const double* ai = a.Row(i);
      for (int k = 0; k <= l; ++k) Axpy(ai[k], a.Row(k), g.data(), i);
      for (int k = 0; k <= l; ++k) {
        double* ak = a.Row(k);
        Axpy(-ak[i], g.data(), ak, i);
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

}  // namespace

// Implicit-shift QL iteration on the tridiagonal (diag, sub). In
// SymmetricEigen `zt` starts as Q^T, the accumulated transformation with
// basis vectors as ROWS, so each Givens update rotates a contiguous row
// pair (RotateRows) -- the O(d^3) hot path of the decomposition. A failed
// convergence (-1) sends SymmetricEigen to Jacobi; QL failure is
// essentially theoretical for symmetric input.
int TridiagonalQL(std::vector<double>* diag, std::vector<double>* sub,
                  Matrix* zt_ptr) {
  std::vector<double>& d = *diag;
  std::vector<double>& e = *sub;
  Matrix& zt = *zt_ptr;
  const int n = static_cast<int>(d.size());
  int iterations = 0;
  if (n == 0) return iterations;
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    while (true) {
      // Find the first negligible subdiagonal at or after l; the block
      // [l, m] is what the shift works on.
      int m = l;
      while (m < n - 1) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= DBL_EPSILON * dd) break;
        ++m;
      }
      if (m == l) break;
      if (iter++ == 50) return -1;
      ++iterations;
      // Wilkinson-style shift from the leading 2x2.
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
          // Underflow in the chase: split the block and restart.
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
        RotateRows(s, c, zt.Row(i), zt.Row(i + 1), zt.cols());
      }
      if (r == 0.0 && i >= l) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
  return iterations;
}

namespace {

// Cyclic Jacobi fallback: robust, unconditionally convergent, but ~4-5x
// slower than tridiagonal QL at the sizes the sketch layer uses. `a` is
// the symmetrized input (destroyed; eigenvalues end up on its diagonal)
// and `v` accumulates the eigenvectors as rows.
void JacobiEigen(Matrix* a_ptr, Matrix* v_ptr) {
  Matrix& a = *a_ptr;
  Matrix& v = *v_ptr;
  const int d = a.rows();

  const double total = a.FrobeniusNormSquared();
  const double tol = total * 1e-24 + 1e-300;
  constexpr int kMaxSweeps = 64;

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (OffDiagonalMass(a) <= tol) break;
    DSWM_OBS_COUNT("linalg.eigen.jacobi_sweeps", 1);
    for (int p = 0; p < d - 1; ++p) {
      for (int q = p + 1; q < d; ++q) {
        double* const ap = a.Row(p);
        double* const aq = a.Row(q);
        const double apq = ap[q];
        if (apq == 0.0) continue;
        const double app = ap[p];
        const double aqq = aq[q];
        // Skip rotations that cannot change anything at double precision.
        if (std::fabs(apq) <= 1e-18 * (std::fabs(app) + std::fabs(aqq))) {
          continue;
        }
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;

        // A <- J^T A J. A is kept exactly symmetric, so the column halves
        // of the update are mirror copies of the row halves: rotate the two
        // contiguous rows (vectorizable), patch the 2x2 pivot block with
        // the closed-form result (the pivot is annihilated exactly), then
        // mirror the rows back into columns p and q. This replaces the
        // strided column-rotation pass of the textbook formulation.
        for (int k = 0; k < d; ++k) {
          const double apk = ap[k];
          const double aqk = aq[k];
          ap[k] = c * apk - s * aqk;
          aq[k] = s * apk + c * aqk;
        }
        ap[p] = app - t * apq;
        aq[q] = aqq + t * apq;
        ap[q] = 0.0;
        aq[p] = 0.0;
        double* cp = &a(0, p);
        double* cq = &a(0, q);
        for (int k = 0; k < d; ++k, cp += d, cq += d) {
          *cp = ap[k];
          *cq = aq[k];
        }
        // Accumulate eigenvectors: V <- V J. We keep eigenvectors as rows
        // of the result, so accumulate into rows here.
        double* const vp = v.Row(p);
        double* const vq = v.Row(q);
        for (int k = 0; k < d; ++k) {
          const double vpk = vp[k];
          const double vqk = vq[k];
          vp[k] = c * vpk - s * vqk;
          vq[k] = s * vpk + c * vqk;
        }
      }
    }
  }
}

// Symmetrized copy: robust to tiny asymmetries from accumulated
// floating-point updates (C_hat += lambda v v^T etc).
Matrix Symmetrize(const Matrix& input) {
  const int d = input.rows();
  Matrix a(d, d);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) a(i, j) = 0.5 * (input(i, j) + input(j, i));
  }
  return a;
}

EigenResult SortDescending(std::vector<double>* values, Matrix* vectors_rows) {
  const int d = static_cast<int>(values->size());
  std::vector<int> order(d);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [values](int i, int j) {
    return (*values)[i] > (*values)[j];
  });
  EigenResult result;
  result.values.resize(d);
  result.vectors = Matrix(d, d);
  for (int i = 0; i < d; ++i) {
    result.values[i] = (*values)[order[i]];
    result.vectors.SetRow(i, vectors_rows->Row(order[i]));
  }
  return result;
}

}  // namespace

EigenResult SymmetricEigen(const Matrix& input) {
  DSWM_CHECK_EQ(input.rows(), input.cols());
  const int d = input.rows();
  DSWM_OBS_COUNT("linalg.eigen.calls", 1);

  // Fast path: Householder tridiagonalization + implicit-shift QL with
  // row-major eigenvector accumulation. ~4-5x cheaper than cyclic Jacobi
  // at the n = 2*ell Gram sizes the FrequentDirections shrink produces.
  Matrix a = Symmetrize(input);
  std::vector<double> diag;
  std::vector<double> sub;
  Tridiagonalize(&a, &diag, &sub);
  // zt = Q^T: rows of zt are the columns of the accumulated Q, so the QL
  // Givens rotations touch contiguous memory.
  Matrix zt(d, d);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j < d; ++j) zt(i, j) = a(j, i);
  }
  const int iterations = TridiagonalQL(&diag, &sub, &zt);
  if (iterations >= 0) {
    DSWM_OBS_COUNT("linalg.eigen.ql_iterations", iterations);
    return SortDescending(&diag, &zt);
  }

  // QL failed to converge (essentially theoretical): fall back to the
  // unconditionally convergent Jacobi sweeps.
  Matrix jacobi_a = Symmetrize(input);
  Matrix v = Matrix::Identity(d);
  JacobiEigen(&jacobi_a, &v);
  std::vector<double> values(d);
  for (int i = 0; i < d; ++i) values[i] = jacobi_a(i, i);
  return SortDescending(&values, &v);
}

}  // namespace dswm

#include "linalg/spectral_norm.h"

#include <cmath>
#include <vector>

namespace dswm {

namespace {

// Relative margin of CertifyNormBelow (IWMT's kSchurMargin).
constexpr double kCertifyMargin = 1e-6;

// True if the Cholesky factorization of shift I + sign M runs to the end
// with positive pivots. Right-looking on the upper triangle, row-major:
// at step k row k becomes row k of the factor U (U^T U = shift I + sign
// M), and each later row i loses U(k, i) times row k, one Axpy, so the
// first non-positive pivot stops the factorization after k steps.
bool ShiftedCholesky(const Matrix& m, double shift, double sign, Matrix* u) {
  const int d = m.rows();
  for (int i = 0; i < d; ++i) {
    const double* mi = m.Row(i);
    double* ui = u->Row(i);
    for (int j = i; j < d; ++j) ui[j] = sign * mi[j];
    ui[i] += shift;
  }
  for (int k = 0; k < d; ++k) {
    double* uk = u->Row(k);
    if (!(uk[k] > 0.0)) return false;  // also rejects NaN
    const double pivot = std::sqrt(uk[k]);
    for (int j = k; j < d; ++j) uk[j] /= pivot;
    for (int i = k + 1; i < d; ++i) {
      Axpy(-uk[i], uk + i, u->Row(i) + i, d - i);
    }
  }
  return true;
}

}  // namespace

double SpectralNormSym(const SymmetricApplyFn& apply, int d, int max_iters,
                       double tol, uint64_t seed) {
  DSWM_CHECK_GT(d, 0);
  Rng rng(seed);
  std::vector<double> x(d);
  std::vector<double> y(d);
  for (double& v : x) v = rng.NextGaussian();
  double xnorm = std::sqrt(NormSquared(x.data(), d));
  if (xnorm == 0.0) {
    x[0] = 1.0;
    xnorm = 1.0;
  }
  Scale(x.data(), d, 1.0 / xnorm);

  // Power iteration on M directly converges to the dominant |lambda| for a
  // symmetric indefinite M (the +/- sign flip does not affect |Rayleigh|),
  // except when lambda_max = -lambda_min exactly; iterating on M^2 (two
  // applies per step) removes that failure mode.
  double prev = 0.0;
  double est = 0.0;
  for (int it = 0; it < max_iters; ++it) {
    apply(x.data(), y.data());          // y = M x
    apply(y.data(), x.data());          // x = M^2 x  (pre-normalization)
    const double norm2 = std::sqrt(NormSquared(x.data(), d));
    if (norm2 == 0.0) return 0.0;       // x hit the null space: M is tiny.
    est = std::sqrt(norm2);             // ||M^2 x|| ~ lambda^2 for unit x.
    Scale(x.data(), d, 1.0 / norm2);
    if (it > 2 && std::fabs(est - prev) <= tol * std::fabs(est)) break;
    prev = est;
  }
  return est;
}

double SpectralNormSym(const Matrix& m, int max_iters, double tol,
                       uint64_t seed) {
  DSWM_CHECK_EQ(m.rows(), m.cols());
  if (m.rows() == 0) return 0.0;
  return SpectralNormSym(
      [&m](const double* x, double* y) { MatVec(m, x, y); }, m.rows(),
      max_iters, tol, seed);
}

bool CertifyNormBelow(const Matrix& m, double theta) {
  DSWM_CHECK_EQ(m.rows(), m.cols());
  const double bound = (1.0 - kCertifyMargin) * theta;
  if (!(bound > 0.0)) return false;
  if (m.FrobeniusNormSquared() < bound * bound) return true;
  Matrix u(m.rows(), m.cols());
  return ShiftedCholesky(m, bound, -1.0, &u) &&
         ShiftedCholesky(m, bound, 1.0, &u);
}

}  // namespace dswm

#include "linalg/spectral_norm.h"

#include <cmath>
#include <vector>

namespace dswm {

namespace {

// Relative margin of CertifyNormBelow (IWMT's kSchurMargin).
constexpr double kCertifyMargin = 1e-6;

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

// Spectral-norm estimation by power iteration.
//
// The covariance error ||A_w^T A_w - B^T B||_2 is the dominant eigenvalue
// magnitude of a symmetric (generally indefinite) d x d matrix. Power
// iteration converges to the dominant |lambda| at O(d^2) per step, which is
// what the benchmark driver and DA1's threshold check use instead of a full
// O(d^3) SymmetricEigen decomposition (tridiagonalization + QL).

#ifndef DSWM_LINALG_SPECTRAL_NORM_H_
#define DSWM_LINALG_SPECTRAL_NORM_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace dswm {

/// A symmetric linear operator y = M x on R^d, given as a callback so
/// callers can apply M implicitly (e.g. C_w x - B^T (B x)).
using SymmetricApplyFn = std::function<void(const double* x, double* y)>;

/// Estimates max |lambda(M)| for the symmetric operator `apply` of
/// dimension d by power iteration with a deterministic seeded start.
/// Relative accuracy is ~`tol` for matrices with any eigengap; for the
/// (measure-zero) gap-free worst case the estimate is a lower bound within
/// a few percent after `max_iters` steps -- ample for error reporting.
[[nodiscard]] double SpectralNormSym(const SymmetricApplyFn& apply, int d,
                       int max_iters = 300, double tol = 1e-9,
                       uint64_t seed = 0x5eed);

/// Convenience overload for an explicit symmetric matrix.
[[nodiscard]] double SpectralNormSym(const Matrix& m, int max_iters = 300,
                       double tol = 1e-9, uint64_t seed = 0x5eed);

/// As SpectralNormSym but warm-started from *warm (resized/seeded if it
/// does not match d); the converged iterate is written back, so repeated
/// calls against a slowly-drifting operator converge in a few steps.
[[nodiscard]] double SpectralNormSymWarm(const SymmetricApplyFn& apply, int d,
                           std::vector<double>* warm, int max_iters = 60,
                           double tol = 1e-6);

}  // namespace dswm

#endif  // DSWM_LINALG_SPECTRAL_NORM_H_

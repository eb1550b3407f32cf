// Spectral-norm estimation by power iteration, and an exact certificate.
//
// The covariance error ||A_w^T A_w - B^T B||_2 is the dominant eigenvalue
// magnitude of a symmetric (generally indefinite) d x d matrix. Power
// iteration converges to the dominant |lambda| at O(d^2) per step, which is
// what the benchmark driver uses instead of a full O(d^3) SymmetricEigen
// decomposition (tridiagonalization + QL). Its estimate is a lower bound;
// CertifyNormBelow proves an upper one. DA1's threshold check runs a
// Lanczos iteration instead (linalg/lanczos.h).

#ifndef DSWM_LINALG_SPECTRAL_NORM_H_
#define DSWM_LINALG_SPECTRAL_NORM_H_

#include <functional>

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

/// True only if ||M||_2 < theta for the symmetric matrix `m` (its upper
/// triangle is read). Sufficient tests, cheapest first: ||M||_F below the
/// bound, else Cholesky factorizations of b I - M and of b I + M, each
/// stopped at its first non-positive pivot, where b = (1 - 1e-6) theta.
/// The margin is IWMT's Schur-complement margin (core/iwmt.cc); it sits
/// far above the rounding of either test at any d this library runs, so
/// true is never wrong, while a norm below theta but within the margin of
/// it gives false. O(d^2) when the Frobenius test passes, at most d^3 / 3
/// multiply-adds otherwise.
[[nodiscard]] bool CertifyNormBelow(const Matrix& m, double theta);

}  // namespace dswm

#endif  // DSWM_LINALG_SPECTRAL_NORM_H_

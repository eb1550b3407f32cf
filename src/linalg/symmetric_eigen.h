// Symmetric eigendecomposition via Householder tridiagonalization +
// implicit-shift QL (cyclic Jacobi kept as a convergence fallback).
//
// Workhorse used by: DA1's decomposition of D = C - C_hat (Algorithm 4),
// the thin SVD (on the Gram matrix of the short side), the PSD matrix
// square root at the coordinator, and the IWMT significant-direction
// extraction.

#ifndef DSWM_LINALG_SYMMETRIC_EIGEN_H_
#define DSWM_LINALG_SYMMETRIC_EIGEN_H_

#include <vector>

#include "linalg/matrix.h"

namespace dswm {

/// Eigendecomposition A = sum_i lambda_i v_i v_i^T of a symmetric matrix.
struct EigenResult {
  /// Eigenvalues sorted by decreasing value (signed, not by magnitude).
  std::vector<double> values;
  /// Row i is the unit eigenvector for values[i]; shape d x d.
  Matrix vectors;
};

/// Decomposes the symmetric matrix `a` (only its symmetric part is used).
/// Householder reduction to tridiagonal form followed by implicit-shift QL
/// with eigenvectors accumulated as rows; O(d^3) with a small constant.
/// Falls back to cyclic Jacobi sweeps if QL fails to converge (essentially
/// theoretical for symmetric input). Accurate to machine precision.
[[nodiscard]] EigenResult SymmetricEigen(const Matrix& a);

/// Largest eigenvalue magnitude max_i |lambda_i|, i.e. the spectral norm of
/// a symmetric matrix, computed exactly from a full SymmetricEigen
/// decomposition (tridiagonal QL). Prefer SpectralNormSym (spectral_norm.h)
/// in hot paths.
[[nodiscard]] double SpectralNormExact(const Matrix& a);

}  // namespace dswm

#endif  // DSWM_LINALG_SYMMETRIC_EIGEN_H_

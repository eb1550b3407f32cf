// Symmetric eigendecomposition via Householder tridiagonalization +
// implicit-shift QL (cyclic Jacobi kept as a convergence fallback).
//
// Workhorse used by: DA1's exact fallback for D = C - C_hat (Algorithm 4),
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

/// Implicit-shift QL on the symmetric tridiagonal matrix with diagonal
/// `diag` and subdiagonal `sub` (sub[i] = T(i, i-1); sub[0] is ignored),
/// both of length n. On return `diag` holds the eigenvalues, unordered, and
/// `sub` is destroyed. Each Givens rotation of rows (i, i+1) of T is also
/// applied to rows i and i+1 of `zt` (at least n rows, any width): started
/// from the identity, row i ends as the eigenvector of diag[i]; a single
/// column started at e_j ends holding the j-th component of every
/// eigenvector. The eigenvalues do not depend on `zt`. Returns the number
/// of QL iterations, or -1 if an eigenvalue fails to converge within 50
/// (essentially theoretical).
[[nodiscard]] int TridiagonalQL(std::vector<double>* diag,
                                std::vector<double>* sub, Matrix* zt);

}  // namespace dswm

#endif  // DSWM_LINALG_SYMMETRIC_EIGEN_H_

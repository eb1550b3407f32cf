// Right singular vectors via the Gram matrix of the short side.
//
// For an n x d matrix the decomposition costs O(min(n,d)^3 + n*d*min(n,d)).
// This keeps Frequent Directions cheap even at large d (it decomposes the
// small 2l x 2l Gram matrix), while a full d x d decomposition (DA1's path)
// remains cubic in d -- matching the cost profile the paper reports.
//
// Accuracy note: squaring through the Gram matrix loses singular values
// below ~sqrt(machine-eps) * sigma_max. All uses here only need the
// dominant directions of sketches, where this is harmless.

#ifndef DSWM_LINALG_SVD_H_
#define DSWM_LINALG_SVD_H_

#include <vector>

#include "linalg/matrix.h"

namespace dswm {

/// Right singular vectors and *squared* singular values of `a`, skipping the
/// computation of U. This is the exact shape Frequent Directions needs for
/// its shrink step.
struct RightSvdResult {
  /// Squared singular values (eigenvalues of A^T A), descending,
  /// length min(rows, cols).
  std::vector<double> sigma_squared;
  /// min(rows, cols) x cols right singular vectors as rows.
  Matrix vt;
};

/// Computes right singular vectors + squared singular values of `a`.
[[nodiscard]] RightSvdResult RightSvd(const Matrix& a);

/// Two-pass modified Gram-Schmidt re-orthonormalization of the first `r`
/// rows of `m` against each other; stabilizes vectors recovered through
/// near-degenerate Gram eigenpairs. Row i depends only on rows j < i, so
/// orthonormalizing a prefix matches orthonormalizing the full set on
/// that prefix. Zero rows stay zero.
void OrthonormalizeRows(Matrix* m, int r);

}  // namespace dswm

#endif  // DSWM_LINALG_SVD_H_

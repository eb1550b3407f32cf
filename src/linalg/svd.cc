#include "linalg/svd.h"

#include <algorithm>
#include <cmath>

#include "linalg/symmetric_eigen.h"

namespace dswm {

void OrthonormalizeRows(Matrix* m, int r) {
  for (int i = 0; i < r; ++i) {
    double* vi = m->Row(i);
    for (int pass = 0; pass < 2; ++pass) {
      for (int j = 0; j < i; ++j) {
        const double proj = Dot(vi, m->Row(j), m->cols());
        Axpy(-proj, m->Row(j), vi, m->cols());
      }
    }
    const double norm = std::sqrt(NormSquared(vi, m->cols()));
    if (norm > 0.0) Scale(vi, m->cols(), 1.0 / norm);
  }
}

RightSvdResult RightSvd(const Matrix& a) {
  RightSvdResult result;
  const int n = a.rows();
  const int d = a.cols();
  if (n == 0 || d == 0) {
    result.vt = Matrix(0, d);
    return result;
  }
  const int r = std::min(n, d);

  if (n <= d) {
    // Small Gram: G = A A^T (n x n); eigenvectors u_i give
    // v_i = A^T u_i / sigma_i.
    const EigenResult eig = SymmetricEigen(Gram(a));
    result.sigma_squared.resize(r);
    result.vt = Matrix(r, d);
    const double lead = std::max(eig.values.empty() ? 0.0 : eig.values[0], 0.0);
    for (int i = 0; i < r; ++i) {
      const double lambda = std::max(eig.values[i], 0.0);
      result.sigma_squared[i] = lambda;
      if (lambda > lead * 1e-26 && lambda > 0.0) {
        MatTVec(a, eig.vectors.Row(i), result.vt.Row(i));
        Scale(result.vt.Row(i), d, 1.0 / std::sqrt(lambda));
      }
      // else: leave a zero row; its sigma is (numerically) zero.
    }
    OrthonormalizeRows(&result.vt, r);
  } else {
    // Large row count: G = A^T A (d x d); its eigenvectors are the v_i.
    const EigenResult eig = SymmetricEigen(GramTranspose(a));
    result.sigma_squared.resize(r);
    result.vt = Matrix(r, d);
    for (int i = 0; i < r; ++i) {
      result.sigma_squared[i] = std::max(eig.values[i], 0.0);
      result.vt.SetRow(i, eig.vectors.Row(i));
    }
  }
  return result;
}

}  // namespace dswm

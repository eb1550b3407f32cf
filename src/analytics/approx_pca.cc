#include "analytics/approx_pca.h"

#include <algorithm>
#include <cmath>

#include "serve/snapshot.h"

namespace dswm {

StatusOr<ApproxPca> ApproxPca::FromEigenbasis(const EigenResult& eig, int dim,
                                              int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (dim == 0) return Status::InvalidArgument("estimate has no columns");

  ApproxPca pca;
  double total = 0.0;
  for (double v : eig.values) total += std::max(v, 0.0);
  // Eigenvalues at the gram-route noise floor are numerical rank
  // deficiency, not signal; the relative tolerance matches PsdSqrt's.
  const double tol =
      eig.values.empty() ? 0.0 : std::max(eig.values[0], 0.0) * 1e-12;

  const int keep = std::min<int>(k, static_cast<int>(eig.values.size()));
  double captured = 0.0;
  pca.basis_ = Matrix(0, dim);
  for (int i = 0; i < keep; ++i) {
    const double v = eig.values[static_cast<size_t>(i)];
    if (v <= 0.0 || v <= tol) break;
    pca.basis_.AppendRow(eig.vectors.Row(i), dim);
    pca.explained_variance_.push_back(v);
    captured += v;
  }
  pca.captured_fraction_ = total > 0.0 ? captured / total : 0.0;
  return pca;
}

StatusOr<ApproxPca> ApproxPca::FromSnapshot(const serve::Snapshot& snapshot,
                                            int k) {
  return FromEigenbasis(snapshot.estimate().Eigen(), snapshot.dim(), k);
}

std::vector<double> ApproxPca::Project(const double* x) const {
  std::vector<double> coeffs(basis_.rows());
  MatVec(basis_, x, coeffs.data());
  return coeffs;
}

double ApproxPca::ReconstructionError(const double* x) const {
  const std::vector<double> coeffs = Project(x);
  const double projected =
      NormSquared(coeffs.data(), static_cast<int>(coeffs.size()));
  return std::max(0.0, NormSquared(x, dim()) - projected);
}

double ApproxPca::Affinity(const ApproxPca& other) const {
  DSWM_CHECK_EQ(dim(), other.dim());
  if (components() == 0 || other.components() == 0) return 0.0;
  // sum of squared principal cosines = ||U V^T||_F^2 for orthonormal row
  // bases U, V.
  double sum = 0.0;
  std::vector<double> coeffs(basis_.rows());
  for (int i = 0; i < other.basis_.rows(); ++i) {
    MatVec(basis_, other.basis_.Row(i), coeffs.data());
    sum += NormSquared(coeffs.data(), basis_.rows());
  }
  return sum / std::min(components(), other.components());
}

}  // namespace dswm

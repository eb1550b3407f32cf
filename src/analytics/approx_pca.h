// Approximate PCA from a published covariance snapshot.
//
// The paper's motivating application 1 (Section I): the top-k right
// singular vectors of an eps-covariance sketch B span a subspace whose
// captured variance is within eps * ||A||_F^2 of the optimal PCA basis of
// A [14]. This module turns a published snapshot into a PCA basis,
// explained variances, projections, and subspace comparisons. The basis is
// read off the snapshot's cached eigendecomposition (eigenvectors of B^T B
// are the right singular vectors of B), so construction is O(k d) copying
// -- the O(d^3) decomposition was paid once at publication.

#ifndef DSWM_ANALYTICS_APPROX_PCA_H_
#define DSWM_ANALYTICS_APPROX_PCA_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/symmetric_eigen.h"

namespace dswm {

namespace serve {
class Snapshot;
}  // namespace serve

/// A rank-k PCA basis extracted from a snapshot. Owns its basis rows, so
/// it may outlive the snapshot it was built from (ChangeDetector freezes
/// one as its reference).
class ApproxPca {
 public:
  /// An empty basis (0 components); useful as a placeholder before
  /// FromSnapshot.
  ApproxPca() = default;

  /// The top-k principal directions of the snapshot. Fails if k < 1;
  /// retains fewer than k components when the estimate has lower
  /// numerical rank.
  static StatusOr<ApproxPca> FromSnapshot(const serve::Snapshot& snapshot,
                                          int k);

  /// Number of retained components (<= requested k).
  int components() const { return basis_.rows(); }
  int dim() const { return basis_.cols(); }

  /// Row i is the i-th principal direction (unit vector).
  const Matrix& basis() const { return basis_; }

  /// Variance along each retained direction (sigma_i^2 of the sketch),
  /// descending.
  const std::vector<double>& explained_variance() const {
    return explained_variance_;
  }

  /// Fraction of the estimate's total variance captured by the basis,
  /// in [0, 1].
  double captured_fraction() const { return captured_fraction_; }

  /// Projects x (length d) onto the basis; returns k coefficients.
  std::vector<double> Project(const double* x) const;

  /// Squared reconstruction error of x under the basis:
  /// ||x||^2 - ||Project(x)||^2.
  double ReconstructionError(const double* x) const;

  /// Subspace affinity with another basis over the same R^d:
  /// (1/k) sum of squared principal cosines, in [0, 1]; 1 = identical
  /// subspaces. The complement (1 - affinity) is the change-detection
  /// signal.
  double Affinity(const ApproxPca& other) const;

 private:
  friend class serve::Snapshot;

  /// Publication-path constructor: reads the top-k eigenpairs of a cached
  /// eigendecomposition. Eigenvalues below 1e-12 of the largest count as
  /// numerical rank deficiency and are dropped.
  static StatusOr<ApproxPca> FromEigenbasis(const EigenResult& eig, int dim,
                                            int k);

  Matrix basis_;
  std::vector<double> explained_variance_;
  double captured_fraction_ = 0.0;
};

}  // namespace dswm

#endif  // DSWM_ANALYTICS_APPROX_PCA_H_

// Ridge-leverage anomaly scoring over a published snapshot
// (paper Section I application 2; cf. Huang & Kasiviswanathan [15]).
//
// score(x) = x^T (C + lambda I)^{-1} x with C the snapshot's covariance
// estimate. Directions the window's data never excites score high. If the
// snapshot is an eps-covariance sketch of A_w, the score approximates the
// exact window's score (Theorem-level argument in [15]).
//
// Scorers are built from a published serve::Snapshot and borrow its
// cached eigendecomposition (one SymmetricEigen per published version,
// shared by every consumer). A scorer must not outlive the snapshot it was
// built from: hold a serve::SnapshotRef to it, or use the snapshot's own
// memoized scorer (serve::Snapshot::scorer(), default ridge), which lives
// exactly as long as the version.

#ifndef DSWM_ANALYTICS_ANOMALY_SCORER_H_
#define DSWM_ANALYTICS_ANOMALY_SCORER_H_

#include <vector>

#include "common/status.h"
#include "linalg/symmetric_eigen.h"

namespace dswm {

class CovarianceEstimate;

namespace serve {
class Snapshot;
}  // namespace serve

/// Precomputed scorer for one published version; build a new one for a
/// newer version.
class AnomalyScorer {
 public:
  /// Empty scorer (dim 0); placeholder until assigned.
  AnomalyScorer() = default;

  /// Builds a scorer from a snapshot. `lambda_fraction` sets the ridge as
  /// lambda = lambda_fraction * trace(C) / d (a dimensionless knob; 0.01
  /// is a good default -- the snapshot's memoized scorer uses the store's
  /// configured fraction). Fails on a non-positive fraction.
  static StatusOr<AnomalyScorer> FromSnapshot(
      const serve::Snapshot& snapshot, double lambda_fraction = 0.01);

  /// score(x) = x^T (C + lambda I)^{-1} x; O(d^2).
  double Score(const double* x) const;

  /// The ridge actually used.
  double lambda() const { return lambda_; }
  int dim() const { return static_cast<int>(inverse_eigenvalues_.size()); }

 private:
  friend class serve::Snapshot;

  /// Publication-path constructor: `est` must be sealed (its Covariance()
  /// and Eigen() caches populated), and must outlive the scorer.
  static StatusOr<AnomalyScorer> ForSealedEstimate(
      const CovarianceEstimate& est, double lambda_fraction);

  const EigenResult* eig_ = nullptr;  // borrowed from the estimate's cache
  std::vector<double> inverse_eigenvalues_;
  double lambda_ = 0.0;
};

}  // namespace dswm

#endif  // DSWM_ANALYTICS_ANOMALY_SCORER_H_

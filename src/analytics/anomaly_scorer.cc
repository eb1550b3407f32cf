#include "analytics/anomaly_scorer.h"

#include <algorithm>

#include "core/covariance_estimate.h"
#include "linalg/matrix.h"
#include "serve/snapshot.h"

namespace dswm {

StatusOr<AnomalyScorer> AnomalyScorer::ForSealedEstimate(
    const CovarianceEstimate& est, double lambda_fraction) {
  if (lambda_fraction <= 0.0) {
    return Status::InvalidArgument("lambda_fraction must be > 0");
  }
  const int d = est.Dim();
  if (d == 0) return Status::InvalidArgument("empty estimate");
  const Matrix& covariance = est.Covariance();
  double trace = 0.0;
  for (int j = 0; j < d; ++j) trace += std::max(covariance(j, j), 0.0);
  AnomalyScorer scorer;
  scorer.lambda_ = std::max(lambda_fraction * trace / d, 1e-300);
  scorer.eig_ = &est.Eigen();
  scorer.inverse_eigenvalues_.resize(static_cast<size_t>(d));
  for (int i = 0; i < d; ++i) {
    scorer.inverse_eigenvalues_[static_cast<size_t>(i)] =
        1.0 / (std::max(scorer.eig_->values[static_cast<size_t>(i)], 0.0) +
               scorer.lambda_);
  }
  return scorer;
}

StatusOr<AnomalyScorer> AnomalyScorer::FromSnapshot(
    const serve::Snapshot& snapshot, double lambda_fraction) {
  return ForSealedEstimate(snapshot.estimate(), lambda_fraction);
}

double AnomalyScorer::Score(const double* x) const {
  const int d = dim();
  double s = 0.0;
  for (int i = 0; i < d; ++i) {
    const double c = Dot(eig_->vectors.Row(i), x, d);
    s += inverse_eigenvalues_[static_cast<size_t>(i)] * c * c;
  }
  return s;
}

}  // namespace dswm

// Analytics built on the serving tier: every scorer/basis/detector is
// constructed from a published snapshot of a single-version SnapshotStore
// (the snapshot-API successor of the old matrix-style constructors).

#include <cmath>

#include <gtest/gtest.h>

#include "analytics/anomaly_scorer.h"
#include "analytics/approx_pca.h"
#include "analytics/change_detector.h"
#include "common/rng.h"
#include "core/covariance_estimate.h"
#include "linalg/qr.h"
#include "serve/snapshot_store.h"

namespace dswm {
namespace {

// Rows concentrated in the span of `basis` (k x d) plus small noise.
Matrix RowsInSubspace(const Matrix& basis, int n, double noise,
                      uint64_t seed) {
  Rng rng(seed);
  const int d = basis.cols();
  const int k = basis.rows();
  Matrix rows(n, d);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < k; ++c) {
      Axpy(rng.NextGaussian() * (k - c), basis.Row(c), rows.Row(i), d);
    }
    for (int j = 0; j < d; ++j) rows(i, j) += noise * rng.NextGaussian();
  }
  return rows;
}

// One published version, held: the snapshot-API equivalent of handing a
// sketch matrix straight to an analytics constructor.
struct Published {
  explicit Published(Matrix rows) {
    status = store.Publish(CovarianceEstimate::FromRows(std::move(rows)),
                           /*published_at=*/100, /*window=*/100);
    if (status.ok()) ref = store.Latest();
  }

  serve::SnapshotStore store;
  Status status = Status::OK();
  serve::SnapshotRef ref;
};

TEST(ApproxPca, RecoversPlantedSubspace) {
  const int d = 16;
  const int k = 3;
  Rng rng(1);
  const Matrix basis = RandomOrthonormalRows(k, d, &rng);
  Published data(RowsInSubspace(basis, 400, 0.01, 2));
  ASSERT_TRUE(data.status.ok());

  const auto pca = ApproxPca::FromSnapshot(*data.ref, k);
  ASSERT_TRUE(pca.ok());
  EXPECT_EQ(pca.value().components(), k);
  EXPECT_GT(pca.value().captured_fraction(), 0.99);

  // The recovered basis must span the planted one.
  Published planted_snapshot(basis);
  const auto planted = ApproxPca::FromSnapshot(*planted_snapshot.ref, k);
  ASSERT_TRUE(planted.ok());
  EXPECT_GT(pca.value().Affinity(planted.value()), 0.99);
}

TEST(ApproxPca, ExplainedVarianceDescending) {
  Rng rng(3);
  Matrix rows(60, 8);
  for (int i = 0; i < 60; ++i) {
    for (int j = 0; j < 8; ++j) rows(i, j) = rng.NextGaussian() * (8 - j);
  }
  Published data(std::move(rows));
  const auto pca = ApproxPca::FromSnapshot(*data.ref, 8);
  ASSERT_TRUE(pca.ok());
  const auto& ev = pca.value().explained_variance();
  for (size_t i = 1; i < ev.size(); ++i) EXPECT_GE(ev[i - 1], ev[i]);
}

TEST(ApproxPca, ProjectAndReconstructionError) {
  Matrix basis(1, 3);
  basis(0, 0) = 1.0;  // e1
  Published data(std::move(basis));
  const auto pca = ApproxPca::FromSnapshot(*data.ref, 1);
  ASSERT_TRUE(pca.ok());
  const double x[] = {2.0, 3.0, 0.0};
  const auto coeffs = pca.value().Project(x);
  ASSERT_EQ(coeffs.size(), 1u);
  EXPECT_NEAR(std::fabs(coeffs[0]), 2.0, 1e-12);
  EXPECT_NEAR(pca.value().ReconstructionError(x), 9.0, 1e-12);
}

TEST(ApproxPca, RankDeficientKeepsFewerComponents) {
  Matrix rows(2, 5);
  rows(0, 2) = 1.0;
  rows(1, 2) = 2.0;  // rank 1
  Published data(std::move(rows));
  const auto pca = ApproxPca::FromSnapshot(*data.ref, 4);
  ASSERT_TRUE(pca.ok());
  EXPECT_EQ(pca.value().components(), 1);
}

TEST(ApproxPca, RejectsBadK) {
  Published data(Matrix(2, 2));
  ASSERT_TRUE(data.status.ok());
  EXPECT_FALSE(ApproxPca::FromSnapshot(*data.ref, 0).ok());
}

TEST(ApproxPca, AffinityOrthogonalSubspacesIsZero) {
  Matrix e1(1, 4);
  e1(0, 0) = 1.0;
  Matrix e2(1, 4);
  e2(0, 1) = 1.0;
  Published pub_a(std::move(e1));
  Published pub_b(std::move(e2));
  const auto a = ApproxPca::FromSnapshot(*pub_a.ref, 1);
  const auto b = ApproxPca::FromSnapshot(*pub_b.ref, 1);
  EXPECT_NEAR(a.value().Affinity(b.value()), 0.0, 1e-12);
  EXPECT_NEAR(a.value().Affinity(a.value()), 1.0, 1e-12);
}

TEST(ChangeDetector, FlagsSubspaceRotationOnly) {
  const int d = 12;
  Rng rng(9);
  const Matrix basis_a = RandomOrthonormalRows(3, d, &rng);
  const Matrix basis_b = RandomOrthonormalRows(3, d, &rng);

  // One store, many versions: the detector freezes its reference from
  // version 1 and each Update() reads the then-latest version.
  serve::SnapshotStore store;
  auto publish = [&](Matrix rows, Timestamp at) {
    return store.Publish(CovarianceEstimate::FromRows(std::move(rows)), at,
                         /*window=*/100);
  };
  ASSERT_TRUE(publish(RowsInSubspace(basis_a, 300, 0.02, 10), 100).ok());

  ChangeDetectorOptions options;
  options.components = 3;
  options.calibration_updates = 3;
  auto detector = ChangeDetector::FromSnapshot(*store.Latest(), options);
  ASSERT_TRUE(detector.ok());
  EXPECT_EQ(detector.value().reference_version(), 1u);

  // Quiet period: same subspace, fresh noise.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        publish(RowsInSubspace(basis_a, 300, 0.02, 20 + i), 200 + i).ok());
    const auto dist = detector.value().Update(*store.Latest());
    ASSERT_TRUE(dist.ok());
    EXPECT_LT(dist.value(), 0.05);
  }
  EXPECT_FALSE(detector.value().change_detected());

  // Rotated subspace: must flag.
  ASSERT_TRUE(publish(RowsInSubspace(basis_b, 300, 0.02, 30), 300).ok());
  ASSERT_TRUE(detector.value().Update(*store.Latest()).ok());
  EXPECT_TRUE(detector.value().change_detected());
  EXPECT_GT(detector.value().last_distance(), 0.3);

  detector.value().Reset();
  EXPECT_FALSE(detector.value().change_detected());
}

TEST(ChangeDetector, RejectsZeroRankReference) {
  Published data(Matrix(2, 4));  // all-zero rows: rank 0
  ASSERT_TRUE(data.status.ok());
  EXPECT_FALSE(
      ChangeDetector::FromSnapshot(*data.ref, ChangeDetectorOptions()).ok());
}

TEST(AnomalyScorer, UnexcitedDirectionsScoreHigh) {
  const int d = 10;
  Rng rng(5);
  const Matrix basis = RandomOrthonormalRows(2, d, &rng);
  Published data(RowsInSubspace(basis, 500, 0.0, 6));

  const auto scorer = AnomalyScorer::FromSnapshot(*data.ref, 0.01);
  ASSERT_TRUE(scorer.ok());

  // A point inside the excited subspace.
  std::vector<double> inside(basis.Row(0), basis.Row(0) + d);
  // A point orthogonal to it (Gram-Schmidt a random vector).
  std::vector<double> outside(d);
  for (double& v : outside) v = rng.NextGaussian();
  for (int c = 0; c < 2; ++c) {
    const double proj = Dot(outside.data(), basis.Row(c), d);
    Axpy(-proj, basis.Row(c), outside.data(), d);
  }
  const double norm = std::sqrt(NormSquared(outside.data(), d));
  Scale(outside.data(), d, 1.0 / norm);

  EXPECT_GT(scorer.value().Score(outside.data()),
            20.0 * scorer.value().Score(inside.data()));
}

TEST(AnomalyScorer, RowsMatchCovarianceConstruction) {
  // The same window published in rows form and in covariance form must
  // score identically (both routes share C = B^T B).
  Rng rng(7);
  Matrix rows(40, 6);
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 6; ++j) rows(i, j) = rng.NextGaussian();
  }
  const Matrix gram = GramTranspose(rows);
  Published from_rows(std::move(rows));

  serve::SnapshotStore cov_store;
  ASSERT_TRUE(cov_store
                  .Publish(CovarianceEstimate::FromCovariance(gram), 100, 100)
                  .ok());
  const serve::SnapshotRef cov_ref = cov_store.Latest();

  const auto a = AnomalyScorer::FromSnapshot(*from_rows.ref, 0.05);
  const auto b = AnomalyScorer::FromSnapshot(*cov_ref, 0.05);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<double> x(6);
  for (double& v : x) v = rng.NextGaussian();
  EXPECT_NEAR(a.value().Score(x.data()), b.value().Score(x.data()),
              1e-9 * a.value().Score(x.data()));
}

TEST(AnomalyScorer, RejectsBadInput) {
  Published data(Matrix(3, 3));
  ASSERT_TRUE(data.status.ok());
  EXPECT_FALSE(AnomalyScorer::FromSnapshot(*data.ref, 0.0).ok());
  // An empty estimate cannot even be published.
  serve::SnapshotStore store;
  EXPECT_FALSE(store.Publish(CovarianceEstimate(), 100, 100).ok());
}

}  // namespace
}  // namespace dswm

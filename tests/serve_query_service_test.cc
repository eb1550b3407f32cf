// QueryService contract: typed StatusOr results stamped with the exact
// SnapshotMeta that answered them, FailedPrecondition before the first
// publish, InvalidArgument on dimension mismatch, parity with the
// snapshot's memoized structures, and the lazy change-reference flow.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/covariance_estimate.h"
#include "linalg/qr.h"
#include "serve/query_service.h"
#include "serve/snapshot_store.h"

namespace dswm {
namespace {

Matrix GaussianRows(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) rows(i, j) = rng.NextGaussian();
  }
  return rows;
}

Status PublishRows(serve::SnapshotStore* store, Matrix rows, Timestamp at) {
  return store->Publish(CovarianceEstimate::FromRows(std::move(rows)), at,
                        /*window=*/50);
}

TEST(QueryService, FailsBeforeFirstPublish) {
  serve::SnapshotStore store;
  serve::QueryService service(&store);
  serve::QueryService::Session session = service.NewSession();
  const double x[] = {1.0, 2.0};
  EXPECT_EQ(session.Pca(x, 2).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Anomaly(x, 2).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Change().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.last_version(), 0u);
}

TEST(QueryService, RejectsDimensionMismatch) {
  serve::SnapshotStore store;
  ASSERT_TRUE(PublishRows(&store, GaussianRows(30, 5, 1), 100).ok());
  serve::QueryService service(&store);
  serve::QueryService::Session session = service.NewSession();
  const std::vector<double> x(4, 1.0);
  EXPECT_EQ(session.Pca(x.data(), 4).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Anomaly(x.data(), 4).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryService, ResultsMatchSnapshotMemoizedStructures) {
  serve::StoreOptions options;
  options.pca_components = 3;
  options.lambda_fraction = 0.02;
  serve::SnapshotStore store(options);
  ASSERT_TRUE(PublishRows(&store, GaussianRows(80, 6, 2), 100).ok());

  serve::QueryService service(&store);
  serve::QueryService::Session session = service.NewSession();
  const serve::SnapshotRef ref = store.Latest();
  ASSERT_NE(ref, nullptr);

  const Matrix probes = GaussianRows(5, 6, 3);
  for (int i = 0; i < probes.rows(); ++i) {
    const double* x = probes.Row(i);
    const auto pca = session.Pca(x, 6);
    ASSERT_TRUE(pca.ok());
    EXPECT_EQ(pca.value().meta.version, 1u);
    EXPECT_EQ(pca.value().components, ref->pca().components());
    EXPECT_EQ(pca.value().coefficients, ref->pca().Project(x));
    EXPECT_EQ(pca.value().reconstruction_error,
              ref->pca().ReconstructionError(x));
    EXPECT_EQ(pca.value().captured_fraction, ref->pca().captured_fraction());

    const auto anomaly = session.Anomaly(x, 6);
    ASSERT_TRUE(anomaly.ok());
    EXPECT_EQ(anomaly.value().meta.version, 1u);
    EXPECT_EQ(anomaly.value().score, ref->scorer().Score(x));
    EXPECT_EQ(anomaly.value().lambda, ref->scorer().lambda());
  }
  EXPECT_EQ(session.last_version(), 1u);
}

TEST(QueryService, ChangeSeedsLazilyAndEvaluatesPerVersion) {
  const int d = 10;
  Rng rng(4);
  const Matrix basis_a = RandomOrthonormalRows(2, d, &rng);
  const Matrix basis_b = RandomOrthonormalRows(2, d, &rng);
  auto rows_in = [&](const Matrix& basis, uint64_t seed) {
    Rng r(seed);
    Matrix rows(200, d);
    for (int i = 0; i < 200; ++i) {
      for (int c = 0; c < basis.rows(); ++c) {
        Axpy(r.NextGaussian() * (basis.rows() - c), basis.Row(c), rows.Row(i),
             d);
      }
    }
    return rows;
  };

  serve::SnapshotStore store;
  ChangeDetectorOptions change_options;
  change_options.components = 2;
  change_options.calibration_updates = 2;
  serve::QueryService service(&store, change_options);
  serve::QueryService::Session session = service.NewSession();

  ASSERT_TRUE(PublishRows(&store, rows_in(basis_a, 10), 100).ok());
  // First call freezes the reference from version 1: distance 0.
  auto seeded = session.Change();
  ASSERT_TRUE(seeded.ok());
  EXPECT_EQ(seeded.value().reference_version, 1u);
  EXPECT_EQ(seeded.value().meta.version, 1u);
  EXPECT_DOUBLE_EQ(seeded.value().distance, 0.0);
  EXPECT_FALSE(seeded.value().change_detected);

  // Same version again: the cached verdict comes back unchanged.
  auto cached = session.Change();
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached.value().meta.version, 1u);
  EXPECT_DOUBLE_EQ(cached.value().distance, 0.0);

  // Quiet versions calibrate; a rotated subspace then flags.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(PublishRows(&store, rows_in(basis_a, 20 + i), 200 + i).ok());
    auto quiet = session.Change();
    ASSERT_TRUE(quiet.ok());
    EXPECT_LT(quiet.value().distance, 0.1);
    EXPECT_FALSE(quiet.value().change_detected);
  }
  ASSERT_TRUE(PublishRows(&store, rows_in(basis_b, 30), 300).ok());
  auto flagged = session.Change();
  ASSERT_TRUE(flagged.ok());
  EXPECT_EQ(flagged.value().reference_version, 1u);
  EXPECT_EQ(flagged.value().meta.version, store.latest_version());
  EXPECT_GT(flagged.value().distance, 0.3);
  EXPECT_TRUE(flagged.value().change_detected);
}

TEST(QueryService, SessionsAreIndependent) {
  serve::SnapshotStore store;
  ASSERT_TRUE(PublishRows(&store, GaussianRows(40, 4, 5), 100).ok());
  serve::QueryService service(&store);
  serve::QueryService::Session a = service.NewSession();
  serve::QueryService::Session b = service.NewSession();
  ASSERT_TRUE(a.Change().ok());  // seeds a's reference at version 1
  ASSERT_TRUE(PublishRows(&store, GaussianRows(40, 4, 6), 200).ok());
  auto b_first = b.Change();  // b seeds from version 2 instead
  ASSERT_TRUE(b_first.ok());
  EXPECT_EQ(b_first.value().reference_version, 2u);
  auto a_second = a.Change();
  ASSERT_TRUE(a_second.ok());
  EXPECT_EQ(a_second.value().reference_version, 1u);
}

}  // namespace
}  // namespace dswm

// The unified query/Status API: CovarianceEstimate lazy conversion and
// caching, Observe/RunTracker error paths, and the no-gratuitous-copy
// audit of the driver's snapshot path (via the Matrix copy counter).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/covariance_estimate.h"
#include "core/tracker_factory.h"
#include "monitor/driver.h"
#include "stream/synthetic.h"
#include "test_util.h"

namespace dswm {
namespace {

std::vector<Algorithm> AllAlgorithms() {
  return {Algorithm::kPwor,      Algorithm::kPworAll, Algorithm::kEswor,
          Algorithm::kEsworAll,  Algorithm::kDa1,     Algorithm::kDa2,
          Algorithm::kPwr,       Algorithm::kEswr,    Algorithm::kPwrShared,
          Algorithm::kEswrShared, Algorithm::kCentral};
}

Matrix SmallRows() {
  Matrix b(3, 2);
  b(0, 0) = 1.0;
  b(1, 1) = 2.0;
  b(2, 0) = 0.5;
  b(2, 1) = -1.0;
  return b;
}

TEST(CovarianceEstimate, RowsNativeComputesCovarianceLazily) {
  CovarianceEstimate est = CovarianceEstimate::FromRows(SmallRows());
  EXPECT_TRUE(est.NativeIsRows());
  EXPECT_EQ(est.Dim(), 2);

  const Matrix& cov1 = est.Covariance();
  EXPECT_EQ(cov1.rows(), 2);
  EXPECT_EQ(cov1.cols(), 2);
  EXPECT_EQ(cov1, GramTranspose(est.Rows()));

  // Cached: the second access returns the same object, no recompute.
  const Matrix& cov2 = est.Covariance();
  EXPECT_EQ(&cov1, &cov2);
}

TEST(CovarianceEstimate, CovarianceNativeComputesRowsLazily) {
  const Matrix cov = GramTranspose(SmallRows());
  CovarianceEstimate est = CovarianceEstimate::FromCovariance(cov);
  EXPECT_FALSE(est.NativeIsRows());
  EXPECT_EQ(est.Dim(), 2);

  const Matrix& b1 = est.Rows();
  EXPECT_EQ(b1.cols(), 2);
  // PSD square root: B^T B reconstructs the covariance.
  EXPECT_LT(MaxAbsDiff(GramTranspose(b1), cov), 1e-9);
  EXPECT_EQ(&b1, &est.Rows());  // cached
}

TEST(CovarianceEstimate, NativeAccessAndMovesNeverCopy) {
  Matrix b = SmallRows();
  const long before = Matrix::CopyCount();
  CovarianceEstimate est = CovarianceEstimate::FromRows(std::move(b));
  const Matrix& rows = est.Rows();  // native view: no conversion
  EXPECT_EQ(rows.rows(), 3);
  CovarianceEstimate moved = std::move(est);
  EXPECT_EQ(moved.Rows().rows(), 3);
  EXPECT_EQ(Matrix::CopyCount(), before);
}

TEST(CovarianceEstimate, CopyIsDeepAndCountsAsCopy) {
  CovarianceEstimate est = CovarianceEstimate::FromRows(SmallRows());
  const long before = Matrix::CopyCount();
  CovarianceEstimate copy = est;
  EXPECT_GT(Matrix::CopyCount(), before);
  EXPECT_EQ(copy.Rows(), est.Rows());
}

TEST(CovarianceEstimate, EmptyEstimate) {
  const CovarianceEstimate est;
  EXPECT_TRUE(est.NativeIsRows());
  EXPECT_EQ(est.Dim(), 0);
  EXPECT_EQ(est.Rows().rows(), 0);
}

TimedRow RowAt(Timestamp t, int d) {
  TimedRow row;
  row.timestamp = t;
  row.values.assign(d, 1.0);
  return row;
}

std::unique_ptr<DistributedTracker> SmallTracker(Algorithm a) {
  TrackerConfig config;
  config.dim = 3;
  config.num_sites = 2;
  config.window = 100;
  config.epsilon = 0.3;
  config.ell_override = 8;
  auto tracker = MakeTracker(a, config);
  DSWM_CHECK(tracker.ok());
  return std::move(tracker).value();
}

class ObserveErrors : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ObserveErrors, RejectsBadSiteAndTimeRegression) {
  auto tracker = SmallTracker(GetParam());

  const Status bad_site_low = tracker->Observe(-1, RowAt(1, 3));
  EXPECT_EQ(bad_site_low.code(), StatusCode::kInvalidArgument);
  const Status bad_site_high = tracker->Observe(2, RowAt(1, 3));
  EXPECT_EQ(bad_site_high.code(), StatusCode::kInvalidArgument);
  // Every site window starts at tick 0, so no time may precede it.
  for (const Timestamp t :
       {Timestamp{-5}, Timestamp{-9'200'000'000'000'000'000}}) {
    EXPECT_EQ(tracker->Observe(0, RowAt(t, 3)).code(),
              StatusCode::kInvalidArgument)
        << t;
  }
  EXPECT_EQ(tracker->Comm().TotalWords(), 0);

  EXPECT_TRUE(tracker->Observe(0, RowAt(10, 3)).ok());
  // Time must be non-decreasing across Observe calls.
  const Status regression = tracker->Observe(1, RowAt(9, 3));
  EXPECT_EQ(regression.code(), StatusCode::kInvalidArgument);
  // Equal timestamps and later times remain fine after the rejection.
  EXPECT_TRUE(tracker->Observe(1, RowAt(10, 3)).ok());
  EXPECT_TRUE(tracker->Observe(0, RowAt(11, 3)).ok());
}

TEST_P(ObserveErrors, RejectsMalformedRowsWithoutStateChange) {
  auto tracker = SmallTracker(GetParam());
  ASSERT_TRUE(tracker->Observe(0, RowAt(5, 3)).ok());
  const long words_before = tracker->Comm().TotalWords();
  const Matrix cov_before = tracker->Query().Covariance();

  std::vector<TimedRow> bad = {RowAt(20, 2), RowAt(20, 4), RowAt(20, 0)};
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    TimedRow row = RowAt(20, 3);
    row.values[1] = v;
    bad.push_back(row);
  }
  for (const int j : {-1, 3}) {
    TimedRow row = RowAt(20, 3);
    row.support = {0, j};
    bad.push_back(row);
  }
  for (const TimedRow& row : bad) {
    EXPECT_EQ(tracker->Observe(1, row).code(), StatusCode::kInvalidArgument);
  }

  // Nothing moved: no message, the same estimate, and the timestamp
  // watermark did not advance to the rejected rows' time 20.
  EXPECT_EQ(tracker->Comm().TotalWords(), words_before);
  EXPECT_EQ(tracker->Query().Covariance(), cov_before);
  EXPECT_TRUE(tracker->Observe(1, RowAt(6, 3)).ok());
}

// The estimate's native matrix, shape and bytes.
std::string QueryBytes(const DistributedTracker& tracker) {
  const CovarianceEstimate est = tracker.Query();
  const Matrix& m = est.NativeIsRows() ? est.Rows() : est.Covariance();
  std::string bytes(sizeof(double) * m.rows() * m.cols(), '\0');
  std::memcpy(bytes.data(), m.data(), bytes.size());
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols()) + ":" +
         bytes;
}

// AdvanceTime shares Observe's clock. A negative time, an AdvanceTime
// behind the last row and an Observe behind the last AdvanceTime are
// rejected, and leave the estimate and the communication as they were.
TEST_P(ObserveErrors, RejectsClockRegressionInEitherOrder) {
  auto tracker = SmallTracker(GetParam());
  EXPECT_EQ(tracker->AdvanceTime(-5).code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(tracker->Observe(0, RowAt(10, 3)).ok());
  std::string query = QueryBytes(*tracker);
  long words = tracker->Comm().TotalWords();
  for (const Timestamp t : {Timestamp{5}, Timestamp{-5}}) {
    EXPECT_EQ(tracker->AdvanceTime(t).code(), StatusCode::kInvalidArgument)
        << t;
    EXPECT_EQ(QueryBytes(*tracker), query) << t;
    EXPECT_EQ(tracker->Comm().TotalWords(), words) << t;
  }

  ASSERT_TRUE(tracker->AdvanceTime(20).ok());
  query = QueryBytes(*tracker);
  words = tracker->Comm().TotalWords();
  EXPECT_EQ(tracker->Observe(1, RowAt(15, 3)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryBytes(*tracker), query);
  EXPECT_EQ(tracker->Comm().TotalWords(), words);

  // Equal and later times remain fine after the rejections.
  EXPECT_TRUE(tracker->AdvanceTime(20).ok());
  EXPECT_TRUE(tracker->Observe(1, RowAt(20, 3)).ok());
  EXPECT_TRUE(tracker->AdvanceTime(21).ok());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ObserveErrors,
                         ::testing::ValuesIn(AllAlgorithms()));

TEST(DriverOptionsValidate, CatchesBadFields) {
  DriverOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.query_points = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.query_points = 5;
  options.warmup_fraction = 1.5;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.warmup_fraction = -0.1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(RunTrackerValidation, RejectsBadInputsUpFront) {
  const std::vector<TimedRow> rows = {RowAt(1, 3), RowAt(2, 3)};

  EXPECT_EQ(RunTracker(nullptr, rows, 2, 100, DriverOptions()).status().code(),
            StatusCode::kInvalidArgument);

  auto tracker = SmallTracker(Algorithm::kDa2);
  EXPECT_EQ(RunTracker(tracker.get(), rows, 0, 100, DriverOptions())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      RunTracker(tracker.get(), rows, 2, 0, DriverOptions()).status().code(),
      StatusCode::kInvalidArgument);

  DriverOptions bad;
  bad.warmup_fraction = 2.0;
  EXPECT_EQ(RunTracker(tracker.get(), rows, 2, 100, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RunTrackerValidation, RejectsBadRowsWithoutFeedingTracker) {
  auto tracker = SmallTracker(Algorithm::kDa2);

  const std::vector<TimedRow> wrong_dim = {RowAt(1, 3), RowAt(2, 4)};
  EXPECT_EQ(RunTracker(tracker.get(), wrong_dim, 2, 100, DriverOptions())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  const std::vector<TimedRow> out_of_order = {RowAt(5, 3), RowAt(4, 3)};
  EXPECT_EQ(RunTracker(tracker.get(), out_of_order, 2, 100, DriverOptions())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Validation happened before any Observe: the tracker is still usable
  // from its initial time.
  EXPECT_TRUE(tracker->Observe(0, RowAt(1, 3)).ok());
  EXPECT_EQ(tracker->Comm().TotalWords() >= 0, true);
}

TEST(RunTrackerValidation, RejectsNegativeFirstTimestamp) {
  // Every site window starts at tick 0; an earlier row would trip the
  // trackers' time CHECKs.
  for (const Timestamp t :
       {Timestamp{-5}, Timestamp{-9'200'000'000'000'000'000}}) {
    auto tracker = SmallTracker(Algorithm::kPwor);
    EXPECT_EQ(RunTracker(tracker.get(), {RowAt(t, 3), RowAt(1, 3)}, 2, 2,
                         DriverOptions())
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << t;
  }
}

TEST(DriverSnapshotPath, QueryEvaluationAvoidsGratuitousCopies) {
  // The driver snapshots tracker state at each query point; the estimate
  // must move (not deep-copy) into the evaluation. Replaying the same
  // stream with 0 vs 20 query points isolates the per-query cost from
  // tracker-internal bookkeeping: the difference must be a small constant
  // per query point (exact-window snapshot + tracker estimate snapshot),
  // never linear in rows.
  SyntheticConfig data;
  data.rows = 600;
  data.dim = 5;
  data.seed = 7;
  SyntheticGenerator gen(data);
  const std::vector<TimedRow> rows = Materialize(&gen, data.rows);

  const auto copies_for = [&rows](int query_points) {
    TrackerConfig config;
    config.dim = 5;
    config.num_sites = 2;
    config.window = 150;
    config.epsilon = 0.3;
    auto tracker = MakeTracker(Algorithm::kDa2, config);
    DSWM_CHECK(tracker.ok());
    DriverOptions options;
    options.query_points = query_points;
    const long before = Matrix::CopyCount();
    DSWM_CHECK(RunTracker(tracker.value().get(), rows, 2, 150, options).ok());
    return Matrix::CopyCount() - before;
  };

  const long baseline = copies_for(0);
  const long with_queries = copies_for(20);
  EXPECT_LE(with_queries - baseline, 4 * 20 + 8);
}

}  // namespace
}  // namespace dswm

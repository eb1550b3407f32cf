// Regression test for the driver's early-return path while asynchronous
// query-point evaluations are in flight.
//
// With a multi-threaded pool, RunTracker submits error evaluations that
// write through pointers into its local state (the `errs` deque). An
// Observe() failure mid-replay returns early; RunTracker must quiesce
// the pool before its frame unwinds or a still-running worker writes
// into freed stack/deque memory (a use-after-free ASan catches). The
// fake tracker below makes many rows query points and then injects a
// failure immediately after a burst of submissions.

#include <algorithm>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/covariance_estimate.h"
#include "core/tracker.h"
#include "gtest/gtest.h"
#include "monitor/comm_stats.h"
#include "monitor/driver.h"
#include "stream/timed_row.h"

namespace dswm {
namespace {

// Observes successfully `fail_after` times, then fails every call.
// Query() returns a dense covariance so each async evaluation does real
// work (widening the window in which a worker is still running when the
// injected failure unwinds RunTracker).
class FailAfterTracker : public DistributedTracker {
 public:
  FailAfterTracker(int dim, int fail_after)
      : dim_(dim), fail_after_(fail_after), cov_(dim, dim) {
    for (int i = 0; i < dim_; ++i) cov_(i, i) = 1.0;
  }

  Status Observe(int site, const TimedRow& row) override {
    DSWM_RETURN_NOT_OK(ValidateObserve(site, 1 << 20, row));
    if (++seen_ > fail_after_) {
      return Status::Internal("injected failure at row " +
                              std::to_string(seen_));
    }
    return Status::OK();
  }

  CovarianceEstimate Query() const override {
    return CovarianceEstimate::FromCovariance(cov_);
  }

  const CommStats& Comm() const override { return comm_; }
  long MaxSiteSpaceWords() const override { return dim_; }
  std::string Name() const override { return "FailAfter"; }
  int Dim() const override { return dim_; }

 private:
  void Advance(Timestamp) override {}

  int dim_;
  int fail_after_;
  int seen_ = 0;
  Matrix cov_;
  CommStats comm_;
};

std::vector<TimedRow> MakeRows(int n, int dim) {
  std::vector<TimedRow> rows(n);
  for (int i = 0; i < n; ++i) {
    rows[i].values.assign(dim, 1.0 / (1.0 + i % 7));
    rows[i].timestamp = i + 1;
  }
  return rows;
}

TEST(DriverAsyncError, MidStreamFailureQuiescesPoolBeforeReturning) {
  const int kDim = 48;
  const int kRows = 240;
  const int kFailAfter = 200;
  const std::vector<TimedRow> rows = MakeRows(kRows, kDim);

  FailAfterTracker tracker(kDim, kFailAfter);
  DriverOptions options;
  // Query nearly every row before the failure so a burst of evaluations
  // is in flight when Observe() starts erroring.
  options.query_points = 400;
  options.warmup_fraction = 0.0;

  ThreadPool::SetGlobalThreads(4);
  const StatusOr<RunResult> run =
      RunTracker(&tracker, rows, 4, 60, options);

  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("injected failure"),
            std::string::npos);

  // The pool must be reusable after the unwound run: no dangling task may
  // still be executing against the dead frame.
  std::vector<double> sums(64, 0.0);
  ThreadPool::Global()->ParallelFor(
      64, [&sums](int begin, int end) {
        for (int i = begin; i < end; ++i) sums[i] = i * 2.0;
      });
  ThreadPool::SetGlobalThreads(1);
  EXPECT_DOUBLE_EQ(sums[63], 126.0);
}

TEST(DriverAsyncError, MidStreamFailureSingleThreadedStillClean) {
  // Same failure shape with the inline (single-threaded) evaluation path:
  // the quiescer is a no-op there, and the error must surface identically.
  const int kDim = 8;
  const std::vector<TimedRow> rows = MakeRows(60, kDim);
  FailAfterTracker tracker(kDim, 40);
  DriverOptions options;
  options.query_points = 30;
  options.warmup_fraction = 0.0;

  const StatusOr<RunResult> run =
      RunTracker(&tracker, rows, 2, 20, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace dswm

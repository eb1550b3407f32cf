// The observability determinism contract (DESIGN.md §10):
//
//  1. Enabling metrics must not change any reported tracker result -- every
//     algorithm must produce a bit-identical RunResult and sketch with
//     metrics on vs off.
//  2. Deterministic metrics (everything but *.wall_ns) must be identical
//     between threaded and single-threaded runs: counter adds are
//     commutative and instrumentation sites never depend on chunking.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/tracker_factory.h"
#include "monitor/driver.h"
#include "obs/metrics.h"
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

std::vector<TimedRow> Data() {
  SyntheticConfig config;
  config.rows = 1800;
  config.dim = 6;
  config.seed = 31;
  SyntheticGenerator gen(config);
  return Materialize(&gen, config.rows);
}

struct RunOutput {
  RunResult result;
  Matrix sketch;
};

RunOutput RunOnce(Algorithm algorithm, const std::vector<TimedRow>& rows) {
  TrackerConfig config;
  config.dim = 6;
  config.num_sites = 3;
  config.window = 400;
  config.epsilon = 0.25;
  config.ell_override = 16;
  config.seed = 21;
  auto tracker = MakeTracker(algorithm, config);
  DSWM_CHECK(tracker.ok());
  DriverOptions options;
  options.query_points = 8;
  options.seed = 5;
  StatusOr<RunResult> run =
      RunTracker(tracker.value().get(), rows, 3, 400, options);
  DSWM_CHECK(run.ok());
  return RunOutput{std::move(run).value(), tracker.value()->Query().Rows()};
}

void ExpectSameResult(const RunOutput& a, const RunOutput& b) {
  EXPECT_DOUBLE_EQ(a.result.avg_err, b.result.avg_err);
  EXPECT_DOUBLE_EQ(a.result.max_err, b.result.max_err);
  EXPECT_EQ(a.result.total_words, b.result.total_words);
  EXPECT_EQ(a.result.messages, b.result.messages);
  EXPECT_EQ(a.result.rows_sent, b.result.rows_sent);
  EXPECT_EQ(a.result.broadcasts, b.result.broadcasts);
  EXPECT_EQ(a.result.max_site_space_words, b.result.max_site_space_words);
  EXPECT_EQ(a.sketch, b.sketch);
}

class ObsDeterminism : public ::testing::TestWithParam<Algorithm> {
 protected:
  void SetUp() override {
    obs::SetEnabled(false);
    obs::Registry().ResetForTest();
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::Registry().ResetForTest();
  }
};

TEST_P(ObsDeterminism, EnablingMetricsChangesNoResult) {
  const std::vector<TimedRow> rows = Data();
  const RunOutput off = RunOnce(GetParam(), rows);
  EXPECT_TRUE(off.result.metrics.empty());  // metrics off: no snapshot

  obs::SetEnabled(true);
  const RunOutput on = RunOnce(GetParam(), rows);
  ExpectSameResult(off, on);
  EXPECT_FALSE(on.result.metrics.empty());
}

TEST_P(ObsDeterminism, ThreadedRunSameDeterministicMetrics) {
  const std::vector<TimedRow> rows = Data();
  obs::SetEnabled(true);

  const RunOutput single = RunOnce(GetParam(), rows);
  ThreadPool::SetGlobalThreads(4);
  const RunOutput threaded = RunOnce(GetParam(), rows);
  ThreadPool::SetGlobalThreads(1);

  ExpectSameResult(single, threaded);
  const obs::MetricsSnapshot a = WithoutWallTimes(single.result.metrics);
  const obs::MetricsSnapshot b = WithoutWallTimes(threaded.result.metrics);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  EXPECT_EQ(a.histograms, b.histograms);
  // Serialized form agrees byte for byte, too.
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ObsDeterminism,
                         ::testing::ValuesIn(AllAlgorithms()));

TEST(ObsDeterminism, RunSnapshotIsScopedToTheRun) {
  // Two identical runs with metrics on: the second run's DeltaSince-scoped
  // snapshot must equal the first (the cumulative registry cancels out).
  const std::vector<TimedRow> rows = Data();
  obs::SetEnabled(true);
  obs::Registry().ResetForTest();
  const RunOutput first = RunOnce(Algorithm::kDa2, rows);
  const RunOutput second = RunOnce(Algorithm::kDa2, rows);
  const obs::MetricsSnapshot a = WithoutWallTimes(first.result.metrics);
  const obs::MetricsSnapshot b = WithoutWallTimes(second.result.metrics);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.histograms, b.histograms);
  obs::SetEnabled(false);
  obs::Registry().ResetForTest();
}

}  // namespace
}  // namespace dswm

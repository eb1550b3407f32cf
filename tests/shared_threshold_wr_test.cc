#include "core/shared_threshold_wr_tracker.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/tracker_factory.h"
#include "core/with_replacement_tracker.h"
#include "monitor/driver.h"
#include "sketch/covariance.h"
#include "stream/synthetic.h"
#include "window/exact_window.h"

namespace dswm {
namespace {

TimedRow RandomRow(Rng* rng, int d, Timestamp t) {
  TimedRow row;
  row.timestamp = t;
  row.values.resize(d);
  for (int j = 0; j < d; ++j) row.values[j] = rng->NextGaussian();
  return row;
}

TrackerConfig Config(int ell) {
  TrackerConfig config;
  config.dim = 5;
  config.num_sites = 3;
  config.window = 400;
  config.epsilon = 0.3;
  config.ell_override = ell;
  config.seed = 12;
  return config;
}

TEST(SharedThresholdWr, EverySamplerServedInSteadyState) {
  SharedThresholdWrTracker tracker(Config(16), SamplingScheme::kPriority);
  Rng rng(1);
  for (int i = 1; i <= 2000; ++i) {
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(3)), RandomRow(&rng, 5, i)).ok());
    if (i > 100) {
      EXPECT_EQ(tracker.SamplersWithSample(), 16) << "at row " << i;
    }
  }
  const Matrix sketch = tracker.Query().Rows();
  EXPECT_EQ(sketch.rows(), 16);
}

TEST(SharedThresholdWr, SurvivesFullExpiryAndRefills) {
  SharedThresholdWrTracker tracker(Config(8), SamplingScheme::kPriority);
  Rng rng(2);
  Timestamp t = 1;
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(3)),
                      RandomRow(&rng, 5, t)).ok());
      if (i % 2 == 0) ++t;
    }
    t += 1000;  // full expiry
    EXPECT_TRUE(tracker.AdvanceTime(t).ok());
    EXPECT_EQ(tracker.SamplersWithSample(), 0);
  }
}

TEST(SharedThresholdWr, FarFewerBroadcastsThanIndependentThresholds) {
  const TrackerConfig config = Config(24);
  SyntheticConfig data;
  data.rows = 3000;
  data.dim = 5;
  SyntheticGenerator gen(data);
  const std::vector<TimedRow> rows = Materialize(&gen, data.rows);

  auto shared = MakeTracker(Algorithm::kPwrShared, config);
  auto independent = MakeTracker(Algorithm::kPwr, config);
  DriverOptions options;
  options.query_points = 3;
  const StatusOr<RunResult> rs =
      RunTracker(shared.value().get(), rows, 3, config.window, options);
  const StatusOr<RunResult> ri =
      RunTracker(independent.value().get(), rows, 3, config.window, options);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(ri.ok());

  // The whole point of threshold sharing ([2]): one broadcast serves all
  // l samplers instead of one per sampler.
  EXPECT_LT(rs.value().broadcasts * 4, ri.value().broadcasts);
  EXPECT_GT(rs.value().broadcasts, 0);
}

TEST(SharedThresholdWr, EstimatorAccuracyComparableToIndependentWr) {
  const int d = 5;
  const Timestamp window = 500;
  TrackerConfig config = Config(64);
  config.window = window;

  SharedThresholdWrTracker tracker(config, SamplingScheme::kPriority);
  ExactWindow exact(d, window);
  Rng rng(3);
  double err = 1.0;
  for (int i = 1; i <= 2500; ++i) {
    TimedRow row = RandomRow(&rng, d, i);
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(3)), row).ok());
    exact.Add(row);
    exact.Advance(i);
    if (i == 2500) {
      err = CovarianceErrorOfSketch(exact.Covariance(),
                                    tracker.Query().Rows(),
                                    exact.FrobeniusSquared());
    }
  }
  EXPECT_LT(err, 0.5);  // ~1/sqrt(64) scale with generous slack
}

TEST(SharedThresholdWr, EsSchemeWorksToo) {
  SharedThresholdWrTracker tracker(Config(8),
                                   SamplingScheme::kEfraimidisSpirakis);
  EXPECT_EQ(tracker.Name(), "ESWR-ST");
  Rng rng(4);
  for (int i = 1; i <= 800; ++i) {
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(3)), RandomRow(&rng, 5, i)).ok());
  }
  EXPECT_EQ(tracker.SamplersWithSample(), 8);
  EXPECT_GT(tracker.Comm().TotalWords(), 0);
}

TEST(SharedThresholdWr, FactoryRoundTrip) {
  for (Algorithm a : {Algorithm::kPwrShared, Algorithm::kEswrShared}) {
    const auto parsed = ParseAlgorithm(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), a);
    auto tracker = MakeTracker(a, Config(4));
    ASSERT_TRUE(tracker.ok());
    EXPECT_EQ(tracker.value()->Name(), AlgorithmName(a));
  }
}

}  // namespace
}  // namespace dswm

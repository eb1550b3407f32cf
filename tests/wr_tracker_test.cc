#include "core/with_replacement_tracker.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/tracker_factory.h"
#include "sketch/covariance.h"
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
  config.dim = 4;
  config.num_sites = 2;
  config.window = 300;
  config.epsilon = 0.3;
  config.ell_override = ell;
  config.seed = 21;
  return config;
}

TEST(WithReplacement, ProducesEllSamplesInSteadyState) {
  WithReplacementTracker tracker(Config(12), SamplingScheme::kPriority);
  EXPECT_EQ(tracker.ell(), 12);
  Rng rng(1);
  for (int i = 1; i <= 1200; ++i) {
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)), RandomRow(&rng, 4, i)).ok());
  }
  const Matrix sketch = tracker.Query().Rows();
  EXPECT_EQ(sketch.rows(), 12);
  // WR estimator: every scaled row has squared norm F^2 / l.
  const double expected = NormSquared(sketch.Row(0), 4);
  for (int i = 1; i < 12; ++i) {
    EXPECT_NEAR(NormSquared(sketch.Row(i), 4), expected, 1e-9 * expected);
  }
}

TEST(WithReplacement, AggregatedCommIsSumOfParts) {
  WithReplacementTracker tracker(Config(6), SamplingScheme::kPriority);
  Rng rng(2);
  for (int i = 1; i <= 600; ++i) {
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)), RandomRow(&rng, 4, i)).ok());
  }
  const CommStats& c = tracker.Comm();
  EXPECT_GT(c.TotalWords(), 0);
  EXPECT_EQ(c.TotalWords(), c.words_up + c.words_down);
  EXPECT_GE(c.messages, 6);  // at least one shipment per sampler
}

TEST(WithReplacement, EstimatorRoughlyTracksCovariance) {
  WithReplacementTracker tracker(Config(96), SamplingScheme::kPriority);
  ExactWindow exact(4, 300);
  Rng rng(3);
  double err = 1.0;
  for (int i = 1; i <= 1500; ++i) {
    TimedRow row = RandomRow(&rng, 4, i);
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)), row).ok());
    exact.Add(row);
    exact.Advance(i);
    if (i == 1500) {
      err = CovarianceErrorOfSketch(exact.Covariance(),
                                    tracker.Query().Rows(),
                                    exact.FrobeniusSquared());
    }
  }
  EXPECT_LT(err, 0.45);  // ~1/sqrt(96) with slack
}

TEST(WithReplacement, ExpiryDrainsAllSamplers) {
  WithReplacementTracker tracker(Config(5), SamplingScheme::kPriority);
  Rng rng(4);
  for (int i = 1; i <= 200; ++i) {
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)), RandomRow(&rng, 4, i)).ok());
  }
  EXPECT_TRUE(tracker.AdvanceTime(5000).ok());
  EXPECT_EQ(tracker.Query().Rows().rows(), 0);
}

TEST(WithReplacement, EsVariantNameAndBehaviour) {
  WithReplacementTracker tracker(Config(5),
                                 SamplingScheme::kEfraimidisSpirakis);
  EXPECT_EQ(tracker.Name(), "ESWR");
  Rng rng(5);
  for (int i = 1; i <= 400; ++i) {
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)), RandomRow(&rng, 4, i)).ok());
  }
  EXPECT_EQ(tracker.Query().Rows().rows(), 5);
}

}  // namespace
}  // namespace dswm

// Edge-case battery: numeric extremes, degenerate streams, duplicate
// timestamps, and protocol knobs not covered elsewhere.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/da2_tracker.h"
#include "core/tracker_factory.h"
#include "monitor/driver.h"
#include "sampling/priority.h"
#include "sketch/covariance.h"
#include "window/exact_window.h"

namespace dswm {
namespace {

TimedRow RowOf(std::vector<double> v, Timestamp t) {
  TimedRow row;
  row.values = std::move(v);
  row.timestamp = t;
  return row;
}

TEST(EdgeCases, ExtremeWeightRatiosInPriorityKeys) {
  // Weights spanning 24 orders of magnitude must stay ordered and finite.
  Rng rng(1);
  for (double w : {1e-12, 1e-6, 1.0, 1e6, 1e12}) {
    const double key = DrawKey(SamplingScheme::kPriority, w, &rng);
    EXPECT_TRUE(std::isfinite(key));
    EXPECT_GT(key, 0.0);
    const double es = DrawKey(SamplingScheme::kEfraimidisSpirakis, w, &rng);
    EXPECT_TRUE(es < 0.0 && std::isfinite(es));
    EXPECT_TRUE(std::isfinite(
        KeyBucketValue(SamplingScheme::kEfraimidisSpirakis, es)));
  }
}

TEST(EdgeCases, SamplerHandlesHugeNormRatioStream) {
  // R = 1e12: the motivating regime for weighted (vs uniform) sampling.
  TrackerConfig config;
  config.dim = 2;
  config.num_sites = 2;
  config.window = 500;
  config.epsilon = 0.3;
  config.ell_override = 16;
  config.seed = 2;
  auto tracker = MakeTracker(Algorithm::kPwor, config);
  Rng rng(3);
  ExactWindow exact(2, 500);
  for (int i = 1; i <= 1200; ++i) {
    const double scale = (i % 400 == 0) ? 1e6 : 1.0;
    TimedRow row = RowOf({scale * rng.NextGaussian(), rng.NextGaussian()}, i);
    EXPECT_TRUE(tracker.value()->Observe(static_cast<int>(rng.NextBelow(2)), row).ok());
    exact.Add(row);
    exact.Advance(i);
  }
  const double err = CovarianceErrorOfSketch(
      exact.Covariance(), tracker.value()->Query().Rows(),
      exact.FrobeniusSquared());
  EXPECT_TRUE(std::isfinite(err));
  EXPECT_LT(err, 0.5);
}

TEST(EdgeCases, ManyRowsSharingOneTimestamp) {
  // A whole burst at a single tick, then expiry of the burst as a unit.
  for (Algorithm a : PaperAlgorithms()) {
    TrackerConfig config;
    config.dim = 3;
    config.num_sites = 2;
    config.window = 10;
    config.epsilon = 0.3;
    config.ell_override = 12;
    config.seed = 4;
    auto tracker = MakeTracker(a, config);
    Rng rng(5);
    for (int i = 0; i < 300; ++i) {
      EXPECT_TRUE(tracker.value()->Observe(
          static_cast<int>(rng.NextBelow(2)),
          RowOf({rng.NextGaussian(), rng.NextGaussian(), rng.NextGaussian()},
                /*t=*/7)).ok());
    }
    EXPECT_TRUE(tracker.value()->AdvanceTime(8).ok());
    EXPECT_GT(tracker.value()->Query().Rows().FrobeniusNormSquared(), 0.0)
        << AlgorithmName(a);
    // The burst fully expires.
    EXPECT_TRUE(tracker.value()->AdvanceTime(100).ok());
    const Matrix sketch = tracker.value()->Query().Rows();
    // Deterministic trackers may carry sub-threshold residue; samplers
    // must be empty.
    if (a != Algorithm::kDa1 && a != Algorithm::kDa2) {
      EXPECT_EQ(sketch.rows(), 0) << AlgorithmName(a);
    }
  }
}

TEST(EdgeCases, SingleRowWindow) {
  TrackerConfig config;
  config.dim = 4;
  config.num_sites = 1;
  config.window = 1;  // every row expires at the next tick
  config.epsilon = 0.3;
  config.ell_override = 4;
  auto tracker = MakeTracker(Algorithm::kPwor, config);
  Rng rng(6);
  for (int i = 1; i <= 100; ++i) {
    EXPECT_TRUE(tracker.value()->Observe(0, RowOf({1, 2, 3, 4}, i)).ok());
    // Exactly one active row at all times.
    const Matrix sketch = tracker.value()->Query().Rows();
    ASSERT_EQ(sketch.rows(), 1);
    EXPECT_NEAR(NormSquared(sketch.Row(0), 4), 30.0, 1e-9);
  }
}

TEST(EdgeCases, AllMassOnOneSite) {
  // Site skew: one site receives everything; others stay silent.
  for (Algorithm a : {Algorithm::kPwor, Algorithm::kDa1, Algorithm::kDa2}) {
    TrackerConfig config;
    config.dim = 4;
    config.num_sites = 8;
    config.window = 300;
    config.epsilon = 0.25;
    config.ell_override = 24;
    config.seed = 7;
    auto tracker = MakeTracker(a, config);
    ExactWindow exact(4, 300);
    Rng rng(8);
    for (int i = 1; i <= 900; ++i) {
      TimedRow row = RowOf({rng.NextGaussian(), rng.NextGaussian(),
                            rng.NextGaussian(), rng.NextGaussian()},
                           i);
      EXPECT_TRUE(tracker.value()->Observe(/*site=*/3, row).ok());
      exact.Add(row);
      exact.Advance(i);
    }
    const CovarianceEstimate approx = tracker.value()->Query();
    const double err =
        approx.NativeIsRows()
            ? CovarianceErrorOfSketch(exact.Covariance(), approx.Rows(),
                                      exact.FrobeniusSquared())
            : CovarianceErrorOfCovariance(exact.Covariance(),
                                          approx.Covariance(),
                                          exact.FrobeniusSquared());
    EXPECT_LT(err, 0.5) << AlgorithmName(a);
  }
}

TEST(EdgeCases, TinyEpsilonLargeEll) {
  // eps small enough that l exceeds the active row count: samplers
  // degenerate to exact (every active row at the coordinator).
  TrackerConfig config;
  config.dim = 3;
  config.num_sites = 2;
  config.window = 100;
  config.epsilon = 0.01;  // derived l ~ 46k >> 100 active rows
  config.seed = 9;
  auto tracker = MakeTracker(Algorithm::kPwor, config);
  ExactWindow exact(3, 100);
  Rng rng(10);
  for (int i = 1; i <= 400; ++i) {
    TimedRow row =
        RowOf({rng.NextGaussian(), rng.NextGaussian(), rng.NextGaussian()}, i);
    EXPECT_TRUE(tracker.value()->Observe(static_cast<int>(rng.NextBelow(2)), row).ok());
    exact.Add(row);
    exact.Advance(i);
  }
  const double err = CovarianceErrorOfSketch(
      exact.Covariance(), tracker.value()->Query().Rows(),
      exact.FrobeniusSquared());
  EXPECT_LT(err, 1e-9);  // exact: the full window is the "sample"
}

TEST(EdgeCases, Da2BoundaryFlushPreventsCrossWindowDrift) {
  // Ablation (DESIGN.md item 5): without the boundary flush, unreported
  // IWMT_a mass and FD shrinkage accumulate across windows.
  auto run = [](bool flush) {
    TrackerConfig config;
    config.dim = 6;
    config.num_sites = 2;
    config.window = 200;
    config.epsilon = 0.2;
    config.seed = 11;
    config.da2_flush_at_boundary = flush;
    Da2Tracker tracker(config);
    ExactWindow exact(6, 200);
    Rng rng(12);
    double worst = 0.0;
    for (int i = 1; i <= 3000; ++i) {  // 15 windows
      TimedRow row;
      row.timestamp = i;
      row.values.resize(6);
      for (int j = 0; j < 6; ++j) row.values[j] = rng.NextGaussian();
      EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)), row).ok());
      exact.Add(row);
      exact.Advance(i);
      if (i > 400 && i % 83 == 0) {
        worst = std::max(
            worst, CovarianceErrorOfCovariance(
                       exact.Covariance(),
                       tracker.Query().Covariance(),
                       exact.FrobeniusSquared()));
      }
    }
    return worst;
  };
  const double with_flush = run(true);
  const double without_flush = run(false);
  EXPECT_LE(with_flush, 0.2);
  EXPECT_GT(without_flush, with_flush);
}

TEST(EdgeCases, AdvanceTimeWithoutObservationsIsSafeEverywhere) {
  for (Algorithm a : PaperAlgorithms()) {
    TrackerConfig config;
    config.dim = 2;
    config.num_sites = 2;
    config.window = 50;
    config.epsilon = 0.3;
    config.ell_override = 4;
    auto tracker = MakeTracker(a, config);
    for (Timestamp t = 1; t <= 500; t += 37) {
      EXPECT_TRUE(tracker.value()->AdvanceTime(t).ok());
    }
    EXPECT_EQ(tracker.value()->Comm().TotalWords(), 0) << AlgorithmName(a);
    EXPECT_EQ(tracker.value()->Query().Rows().rows(), 0) << AlgorithmName(a);
  }
}

}  // namespace
}  // namespace dswm

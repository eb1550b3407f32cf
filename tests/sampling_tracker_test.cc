#include "core/sampling_tracker.h"

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sketch/covariance.h"
#include "window/exact_window.h"

namespace dswm {
namespace {

TimedRow RandomRow(Rng* rng, int d, Timestamp t, double scale = 1.0) {
  TimedRow row;
  row.timestamp = t;
  row.values.resize(d);
  for (int j = 0; j < d; ++j) row.values[j] = scale * rng->NextGaussian();
  return row;
}

TrackerConfig SmallConfig(int d = 4, int sites = 3, Timestamp window = 300,
                          double eps = 0.2) {
  TrackerConfig config;
  config.dim = d;
  config.num_sites = sites;
  config.window = window;
  config.epsilon = eps;
  config.ell_override = 24;
  config.seed = 5;
  return config;
}

// Feeds a stream and asserts the structural protocol invariants at every
// step: the sample set S holds between l and 4l entries when enough rows
// are active, every S key is >= tau, and no outstanding key reaches tau
// -- together these imply S contains the global top-l priorities.
void CheckInvariantsOverStream(SamplingScheme scheme,
                               SamplingProtocol protocol) {
  TrackerConfig config = SmallConfig();
  config.protocol = protocol;
  SamplingTracker tracker(config, scheme, /*use_all_samples=*/false);
  Rng rng(17);

  int active_estimate = 0;
  for (int i = 1; i <= 2500; ++i) {
    const Timestamp t = i;
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(config.num_sites)),
                    RandomRow(&rng, config.dim, t)).ok());
    active_estimate = std::min(i, static_cast<int>(config.window));

    if (active_estimate >= 4 * tracker.ell()) {
      EXPECT_GE(tracker.sample_set_size(), tracker.ell());
      if (protocol == SamplingProtocol::kLazyBroadcast) {
        EXPECT_LT(tracker.sample_set_size(), 4 * tracker.ell());
      } else {
        EXPECT_EQ(tracker.sample_set_size(), tracker.ell());
      }
    }
    // Top-l correctness: every key outside S is below every key inside S.
    const double outstanding = tracker.MaxOutstandingKey();
    EXPECT_LE(outstanding, tracker.threshold());
    for (const CoordEntry* e : tracker.CurrentSamples()) {
      EXPECT_GE(e->key, tracker.threshold());
    }
  }
}

TEST(SamplingTracker, LazyInvariantsPriority) {
  CheckInvariantsOverStream(SamplingScheme::kPriority,
                            SamplingProtocol::kLazyBroadcast);
}

TEST(SamplingTracker, LazyInvariantsEs) {
  CheckInvariantsOverStream(SamplingScheme::kEfraimidisSpirakis,
                            SamplingProtocol::kLazyBroadcast);
}

TEST(SamplingTracker, SimpleInvariantsPriority) {
  CheckInvariantsOverStream(SamplingScheme::kPriority,
                            SamplingProtocol::kSimple);
}

TEST(SamplingTracker, SimpleInvariantsEs) {
  CheckInvariantsOverStream(SamplingScheme::kEfraimidisSpirakis,
                            SamplingProtocol::kSimple);
}

TEST(SamplingTracker, FewActiveRowsAllAtCoordinator) {
  // With fewer than l active rows the coordinator must hold all of them.
  TrackerConfig config = SmallConfig();
  config.ell_override = 50;
  SamplingTracker tracker(config, SamplingScheme::kPriority, false);
  Rng rng(3);
  for (int i = 1; i <= 30; ++i) {
    EXPECT_TRUE(tracker.Observe(0, RandomRow(&rng, config.dim, i)).ok());
  }
  EXPECT_EQ(tracker.sample_set_size(), 30);
  const Matrix sketch = tracker.Query().Rows();
  EXPECT_EQ(sketch.rows(), 30);
}

TEST(SamplingTracker, ExpiryDrainsSamples) {
  TrackerConfig config = SmallConfig(4, 2, /*window=*/50);
  SamplingTracker tracker(config, SamplingScheme::kPriority, false);
  Rng rng(4);
  for (int i = 1; i <= 200; ++i) {
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)),
                    RandomRow(&rng, 4, i)).ok());
  }
  EXPECT_GT(tracker.sample_set_size(), 0);
  tracker.AdvanceTime(1000);  // everything expires
  EXPECT_EQ(tracker.sample_set_size(), 0);
  EXPECT_EQ(tracker.candidate_set_size(), 0);
  EXPECT_EQ(tracker.Query().Rows().rows(), 0);
}

TEST(SamplingTracker, LazyBroadcastsFarFewerThanSimple) {
  auto run = [](SamplingProtocol protocol) {
    TrackerConfig config = SmallConfig(4, 4, 400, 0.2);
    config.protocol = protocol;
    SamplingTracker tracker(config, SamplingScheme::kPriority, false);
    Rng rng(6);
    for (int i = 1; i <= 4000; ++i) {
      EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(4)),
                      RandomRow(&rng, 4, i)).ok());
    }
    return tracker.Comm().broadcasts;
  };
  const long lazy = run(SamplingProtocol::kLazyBroadcast);
  const long simple = run(SamplingProtocol::kSimple);
  EXPECT_LT(lazy * 5, simple);  // the whole point of Algorithm 2
}

struct EstimatorCase {
  SamplingScheme scheme;
  bool use_all;
};

// Names the case by its fields rather than by its raw bytes, whose padding
// made the ctest name differ between builds.
void PrintTo(const EstimatorCase& c, std::ostream* os) {
  *os << (c.scheme == SamplingScheme::kPriority ? "priority" : "es")
      << " use_all=" << (c.use_all ? "true" : "false");
}

class SamplingEstimator : public ::testing::TestWithParam<EstimatorCase> {};

TEST_P(SamplingEstimator, CovarianceErrorSmallOnSteadyStream) {
  const auto [scheme, use_all] = GetParam();
  TrackerConfig config = SmallConfig(6, 3, 500, 0.3);
  config.ell_override = 150;
  SamplingTracker tracker(config, scheme, use_all);
  ExactWindow exact(6, 500);
  Rng rng(31);

  double err_at_end = 1.0;
  for (int i = 1; i <= 3000; ++i) {
    TimedRow row = RandomRow(&rng, 6, i);
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(3)), row).ok());
    exact.Add(row);
    exact.Advance(i);
    if (i == 3000) {
      const CovarianceEstimate approx = tracker.Query();
      err_at_end = CovarianceErrorOfSketch(
          exact.Covariance(), approx.Rows(), exact.FrobeniusSquared());
    }
  }
  // l=150 gives roughly 1/sqrt(l) ~ 0.08 error; allow generous slack.
  EXPECT_LT(err_at_end, 0.3);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SamplingEstimator,
    ::testing::Values(EstimatorCase{SamplingScheme::kPriority, false},
                      EstimatorCase{SamplingScheme::kPriority, true},
                      EstimatorCase{SamplingScheme::kEfraimidisSpirakis, false},
                      EstimatorCase{SamplingScheme::kEfraimidisSpirakis,
                                    true}));

TEST(SamplingTracker, SkewedStreamHeavyRowAlwaysSampled) {
  // The motivating example from Section I: one row with enormous norm must
  // be in any weighted sample (uniform sampling would miss it).
  TrackerConfig config = SmallConfig(2, 2, 1000, 0.3);
  config.ell_override = 16;
  SamplingTracker tracker(config, SamplingScheme::kPriority, false);
  Rng rng(8);
  for (int i = 1; i <= 500; ++i) {
    TimedRow row;
    row.timestamp = i;
    row.values = (i == 250) ? std::vector<double>{500.0, 0.0}
                            : std::vector<double>{0.0, 1.0};
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)), row).ok());
  }
  bool found_heavy = false;
  for (const CoordEntry* e : tracker.CurrentSamples()) {
    if (e->row.values[0] == 500.0) found_heavy = true;
  }
  EXPECT_TRUE(found_heavy);
  // And the estimator must reproduce its mass within a small factor.
  const Matrix sketch = tracker.Query().Rows();
  const Matrix cov = GramTranspose(sketch);
  EXPECT_GT(cov(0, 0), 0.5 * 250000.0);
}

TEST(SamplingTracker, ZeroNormRowsIgnored) {
  TrackerConfig config = SmallConfig();
  SamplingTracker tracker(config, SamplingScheme::kPriority, false);
  TimedRow zero;
  zero.timestamp = 1;
  zero.values = {0.0, 0.0, 0.0, 0.0};
  EXPECT_TRUE(tracker.Observe(0, zero).ok());
  EXPECT_EQ(tracker.sample_set_size(), 0);
  EXPECT_EQ(tracker.Comm().TotalWords(), 0);
}

TEST(SamplingTracker, EsChargesFnormTrackingCommunication) {
  TrackerConfig config = SmallConfig();
  SamplingTracker pwor(config, SamplingScheme::kPriority, false);
  SamplingTracker eswor(config, SamplingScheme::kEfraimidisSpirakis, false);
  Rng rng1(9);
  Rng rng2(9);
  for (int i = 1; i <= 1500; ++i) {
    EXPECT_TRUE(pwor.Observe(static_cast<int>(rng1.NextBelow(3)), RandomRow(&rng1, 4, i)).ok());
    EXPECT_TRUE(eswor.Observe(static_cast<int>(rng2.NextBelow(3)), RandomRow(&rng2, 4, i)).ok());
  }
  // Same key distribution family, but ESWOR additionally tracks F^2.
  EXPECT_GT(eswor.Comm().messages, pwor.Comm().messages);
}

TEST(SamplingTracker, BurstyArrivalsKeepInvariant) {
  // Long silence (mass expiry) followed by bursts: the refill path
  // (threshold halving) must restore |S| >= l.
  TrackerConfig config = SmallConfig(3, 2, 100, 0.2);
  config.ell_override = 10;
  SamplingTracker tracker(config, SamplingScheme::kPriority, false);
  Rng rng(12);
  Timestamp t = 1;
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 80; ++i) {
      EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)),
                      RandomRow(&rng, 3, t)).ok());
      if (i % 4 == 0) ++t;
    }
    t += 90;  // almost the whole window of silence
    tracker.AdvanceTime(t);
    EXPECT_GE(tracker.sample_set_size(), 1);
    EXPECT_LE(tracker.MaxOutstandingKey(), tracker.threshold());
  }
}

}  // namespace
}  // namespace dswm

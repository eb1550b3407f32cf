// Sequence-based (count-based) sliding windows, the alternative model the
// paper discusses in Section I-A: in the *centralized* setting it is the
// special case of the time-based model where every row's timestamp is its
// sequence number -- these tests pin that usage down for the substrates
// (gEH, mEH, trackers with m = 1).

#include <cmath>
#include <deque>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/tracker_factory.h"
#include "linalg/spectral_norm.h"
#include "test_util.h"
#include "window/exact_window.h"
#include "window/exponential_histogram.h"
#include "window/matrix_eh.h"

namespace dswm {
namespace {

TEST(SequenceWindow, GehTracksLastNItems) {
  const int n_window = 200;  // last 200 items
  ExponentialHistogram eh(0.1, n_window);
  std::deque<double> exact;
  Rng rng(3);
  double worst = 0.0;
  for (int i = 1; i <= 3000; ++i) {
    const double w = std::exp(rng.NextGaussian());
    eh.Insert(w, /*t=*/i);  // timestamp := sequence number
    exact.push_back(w);
    if (static_cast<int>(exact.size()) > n_window) exact.pop_front();
    if (i > n_window && i % 13 == 0) {
      double truth = 0.0;
      for (double v : exact) truth += v;
      worst = std::max(worst, std::fabs(eh.Query(i) - truth) / truth);
    }
  }
  EXPECT_LE(worst, 0.1);
}

TEST(SequenceWindow, MehTracksLastNRows) {
  const int d = 6;
  const int n_window = 300;
  MatrixExpHistogram meh(d, 0.25, n_window);
  ExactWindow exact(d, n_window);
  Rng rng(4);
  double worst = 0.0;
  for (int i = 1; i <= 2000; ++i) {
    TimedRow row;
    row.timestamp = i;  // sequence number as timestamp
    row.values.resize(d);
    for (int j = 0; j < d; ++j) row.values[j] = rng.NextGaussian();
    meh.Insert(row.values.data(), i);
    exact.Add(row);
    exact.Advance(i);
    if (i > n_window && i % 41 == 0) {
      // Exactly the last n_window rows are active.
      ASSERT_EQ(exact.size(), n_window);
      const double err =
          SpectralNormSym(Subtract(exact.Covariance(),
                                   meh.QueryCovariance())) /
          exact.FrobeniusSquared();
      worst = std::max(worst, err);
    }
  }
  EXPECT_LE(worst, 0.25);
}

TEST(SequenceWindow, SingleSiteTrackerOverLastNRows) {
  // Centralized (m = 1) sequence-based tracking via DA2.
  const int d = 5;
  const int n_window = 250;
  TrackerConfig config;
  config.dim = d;
  config.num_sites = 1;
  config.window = n_window;
  config.epsilon = 0.3;
  auto tracker = MakeTracker(Algorithm::kDa2, config);
  ASSERT_TRUE(tracker.ok());

  ExactWindow exact(d, n_window);
  Rng rng(5);
  double worst = 0.0;
  for (int i = 1; i <= 1500; ++i) {
    TimedRow row;
    row.timestamp = i;
    row.values.resize(d);
    for (int j = 0; j < d; ++j) row.values[j] = rng.NextGaussian();
    EXPECT_TRUE(tracker.value()->Observe(0, row).ok());
    exact.Add(row);
    exact.Advance(i);
    if (i > n_window && i % 97 == 0) {
      const CovarianceEstimate approx = tracker.value()->Query();
      const double err =
          SpectralNormSym(Subtract(exact.Covariance(), approx.Covariance())) /
          exact.FrobeniusSquared();
      worst = std::max(worst, err);
    }
  }
  EXPECT_LE(worst, 0.3);
}

}  // namespace
}  // namespace dswm

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/da1_tracker.h"
#include "core/da2_tracker.h"
#include "sketch/covariance.h"
#include "stream/pamap_like.h"
#include "stream/synthetic.h"
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

TrackerConfig Config(int d, int sites, Timestamp window, double eps) {
  TrackerConfig config;
  config.dim = d;
  config.num_sites = sites;
  config.window = window;
  config.epsilon = eps;
  config.seed = 21;
  return config;
}

// Runs a tracker over a random stream, measuring the covariance error at
// regular checkpoints; returns the worst error seen after warmup.
template <typename Tracker>
double WorstError(Tracker* tracker, int d, int sites, Timestamp window,
                  int n, uint64_t seed, bool heavy = false) {
  ExactWindow exact(d, window);
  Rng rng(seed);
  double worst = 0.0;
  for (int i = 1; i <= n; ++i) {
    const double scale = heavy ? std::exp(1.2 * rng.NextGaussian()) : 1.0;
    TimedRow row = RandomRow(&rng, d, i, scale);
    EXPECT_TRUE(tracker->Observe(static_cast<int>(rng.NextBelow(sites)), row).ok());
    exact.Add(row);
    exact.Advance(i);
    if (i > static_cast<int>(window) / 2 && i % 97 == 0) {
      const CovarianceEstimate approx = tracker->Query();
      const double err = CovarianceErrorOfCovariance(
          exact.Covariance(), approx.Covariance(), exact.FrobeniusSquared());
      worst = std::max(worst, err);
    }
  }
  return worst;
}

struct DetCase {
  double eps;
  int d;
  int sites;
  bool heavy;
};

class Da1Property : public ::testing::TestWithParam<DetCase> {};

TEST_P(Da1Property, ErrorStaysBelowEpsilon) {
  const auto [eps, d, sites, heavy] = GetParam();
  const Timestamp window = 400;
  Da1Tracker tracker(Config(d, sites, window, eps));
  const double worst =
      WorstError(&tracker, d, sites, window, 2000, 51 + d, heavy);
  EXPECT_LE(worst, eps);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Da1Property,
    ::testing::Values(DetCase{0.3, 6, 2, false}, DetCase{0.15, 6, 2, false},
                      DetCase{0.15, 10, 4, true}, DetCase{0.08, 8, 1, false},
                      DetCase{0.3, 4, 3, true}));

class Da2Property : public ::testing::TestWithParam<DetCase> {};

TEST_P(Da2Property, ErrorStaysBelowEpsilon) {
  const auto [eps, d, sites, heavy] = GetParam();
  const Timestamp window = 400;
  Da2Tracker tracker(Config(d, sites, window, eps));
  const double worst =
      WorstError(&tracker, d, sites, window, 2000, 77 + d, heavy);
  EXPECT_LE(worst, eps);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Da2Property,
    ::testing::Values(DetCase{0.3, 6, 2, false}, DetCase{0.15, 6, 2, false},
                      DetCase{0.15, 10, 4, true}, DetCase{0.08, 8, 1, false},
                      DetCase{0.3, 4, 3, true}));

// DA2 at the paper's default eps = 0.05 on its generators, with several
// sites: err <= eps at every window boundary and every eighth of a window
// between, from t = W/8 on. The residual of each IWMT may run up to theta
// between emissions, so this is the guarantee the trigger has to keep at
// realistic d.
struct Da2StreamCase {
  const char* dataset;
  int sites;
  Timestamp window;
};

// Names the case by its fields. The raw-byte dump gtest prints otherwise
// holds the address of `dataset`, so the ctest name changed every build.
void PrintTo(const Da2StreamCase& c, std::ostream* os) {
  *os << c.dataset << " sites=" << c.sites << " window=" << c.window;
}

class Da2Guarantee : public ::testing::TestWithParam<Da2StreamCase> {};

TEST_P(Da2Guarantee, ErrorStaysBelowEpsilonAtEveryBoundary) {
  const Da2StreamCase c = GetParam();
  const double eps = 0.05;
  const int rows_total = static_cast<int>(3.5 * c.window);
  std::vector<TimedRow> rows;
  if (std::string(c.dataset) == "synthetic") {
    SyntheticConfig config;
    config.rows = rows_total;
    config.dim = 64;
    config.seed = 17;
    SyntheticGenerator gen(config);
    rows = Materialize(&gen, rows_total);
  } else {
    PamapLikeConfig config;
    config.rows = rows_total;
    config.seed = 19;
    PamapLikeGenerator gen(config);
    rows = Materialize(&gen, rows_total);
  }
  ASSERT_EQ(static_cast<int>(rows.size()), rows_total);
  const int d = static_cast<int>(rows[0].values.size());

  Da2Tracker tracker(Config(d, c.sites, c.window, eps));
  ExactWindow exact(d, c.window);
  Rng rng(23);
  const Timestamp step = c.window / 8;
  Timestamp next_check = step;
  double worst = 0.0;
  int checks = 0;
  const auto score = [&](Timestamp t) {
    tracker.AdvanceTime(t);
    exact.Advance(t);
    const CovarianceEstimate approx = tracker.Query();
    const double err = CovarianceErrorOfCovariance(
        exact.Covariance(), approx.Covariance(), exact.FrobeniusSquared());
    worst = std::max(worst, err);
    ++checks;
  };
  for (const TimedRow& row : rows) {
    for (; next_check < row.timestamp; next_check += step) score(next_check);
    const int site = static_cast<int>(rng.NextBelow(c.sites));
    ASSERT_TRUE(tracker.Observe(site, row).ok());
    exact.Add(row);
    exact.Advance(row.timestamp);
  }
  EXPECT_GE(checks, 24);
  EXPECT_LE(worst, eps);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGenerators, Da2Guarantee,
    ::testing::Values(Da2StreamCase{"synthetic", 4, 2000},
                      Da2StreamCase{"synthetic", 8, 3000},
                      Da2StreamCase{"pamap", 4, 4000},
                      Da2StreamCase{"pamap", 8, 6000}));

TEST(Da1, OneWayCommunicationOnly) {
  Da1Tracker tracker(Config(5, 3, 200, 0.2));
  Rng rng(1);
  for (int i = 1; i <= 1000; ++i) {
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(3)), RandomRow(&rng, 5, i)).ok());
  }
  EXPECT_EQ(tracker.Comm().words_down, 0);
  EXPECT_EQ(tracker.Comm().broadcasts, 0);
  EXPECT_GT(tracker.Comm().words_up, 0);
}

TEST(Da2, OneWayCommunicationOnly) {
  Da2Tracker tracker(Config(5, 3, 200, 0.2));
  Rng rng(2);
  for (int i = 1; i <= 1000; ++i) {
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(3)), RandomRow(&rng, 5, i)).ok());
  }
  EXPECT_EQ(tracker.Comm().words_down, 0);
  EXPECT_EQ(tracker.Comm().broadcasts, 0);
  EXPECT_GT(tracker.Comm().words_up, 0);
}

TEST(Da1, LazyNormCheckMatchesEagerWithinBudgetAndIsCheaper) {
  TrackerConfig lazy_config = Config(6, 2, 300, 0.2);
  TrackerConfig eager_config = lazy_config;
  eager_config.da1_lazy_norm_check = false;

  Da1Tracker lazy(lazy_config);
  Da1Tracker eager(eager_config);
  const double lazy_err = WorstError(&lazy, 6, 2, 300, 1500, 5);
  const double eager_err = WorstError(&eager, 6, 2, 300, 1500, 5);
  EXPECT_LE(lazy_err, 0.2);
  EXPECT_LE(eager_err, 0.2);
  // The lazy check is the whole point: far fewer power iterations.
  EXPECT_LT(lazy.norm_checks() * 4, eager.norm_checks());
}

TEST(Da1, CommunicationGrowsAsEpsilonShrinks) {
  auto run = [](double eps) {
    Da1Tracker tracker(Config(5, 2, 300, eps));
    Rng rng(6);
    for (int i = 1; i <= 2500; ++i) {
      EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)),
                      RandomRow(&rng, 5, i)).ok());
    }
    return tracker.Comm().TotalWords();
  };
  EXPECT_GT(run(0.05), run(0.4));
}

TEST(Da2, CommunicationGrowsAsEpsilonShrinks) {
  auto run = [](double eps) {
    Da2Tracker tracker(Config(5, 2, 300, eps));
    Rng rng(7);
    for (int i = 1; i <= 2500; ++i) {
      EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)),
                      RandomRow(&rng, 5, i)).ok());
    }
    return tracker.Comm().TotalWords();
  };
  EXPECT_GT(run(0.05), run(0.4));
}

TEST(Da2, ProcessesBoundariesOnIdleTimeJumps) {
  Da2Tracker tracker(Config(4, 1, 100, 0.3));
  Rng rng(8);
  for (int i = 1; i <= 150; ++i) {
    EXPECT_TRUE(tracker.Observe(0, RandomRow(&rng, 4, i)).ok());
  }
  EXPECT_GE(tracker.boundaries_processed(), 1);
  // A jump across several windows must process every crossed boundary and
  // drain the coordinator's estimate to ~zero.
  tracker.AdvanceTime(1000);
  EXPECT_GE(tracker.boundaries_processed(), 3);
  const Matrix cov = tracker.Query().Covariance();
  // All mass expired; only discarded-residue noise may remain.
  ExactWindow empty(4, 100);
  EXPECT_LT(std::sqrt(cov.FrobeniusNormSquared()), 150 * 4 * 0.35);
}

TEST(Da1, ExpiryOnlyStreamDrainsEstimate) {
  Da1Tracker tracker(Config(4, 1, 100, 0.2));
  Rng rng(9);
  double mass = 0.0;
  for (int i = 1; i <= 200; ++i) {
    TimedRow row = RandomRow(&rng, 4, i);
    mass += row.NormSquared();
    EXPECT_TRUE(tracker.Observe(0, row).ok());
  }
  tracker.AdvanceTime(5000);
  const Matrix cov = tracker.Query().Covariance();
  // After full expiry the site must have reported the (negative) change.
  EXPECT_LT(std::sqrt(cov.FrobeniusNormSquared()), 0.25 * mass);
}

TEST(Da1, ConstantRowsLowRankStream) {
  // Rank-1 stream: DA1 needs very few eigenpair messages.
  Da1Tracker tracker(Config(6, 2, 300, 0.2));
  TimedRow row;
  row.values = {1.0, 2.0, 0.0, -1.0, 0.5, 3.0};
  Rng rng(10);
  for (int i = 1; i <= 2000; ++i) {
    row.timestamp = i;
    EXPECT_TRUE(tracker.Observe(static_cast<int>(rng.NextBelow(2)), row).ok());
  }
  // Every message carries d+1 words; a rank-1 drift needs few messages.
  EXPECT_LT(tracker.Comm().rows_sent, 200);
}

}  // namespace
}  // namespace dswm

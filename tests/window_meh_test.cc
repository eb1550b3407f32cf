#include "window/matrix_eh.h"

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/spectral_norm.h"
#include "window/exact_window.h"

namespace dswm {
namespace {

TimedRow MakeRow(Rng* rng, int d, Timestamp t, double scale = 1.0) {
  TimedRow row;
  row.timestamp = t;
  row.values.resize(d);
  for (int j = 0; j < d; ++j) row.values[j] = scale * rng->NextGaussian();
  return row;
}

struct MehCase {
  double eps;
  int d;
  bool heavy_tail;
};

// Names the case by its fields rather than by its raw bytes, whose padding
// made the ctest name differ between builds.
void PrintTo(const MehCase& c, std::ostream* os) {
  *os << "eps=" << c.eps << " d=" << c.d
      << (c.heavy_tail ? " heavy" : " gaussian");
}

class MehProperty : public ::testing::TestWithParam<MehCase> {};

TEST_P(MehProperty, CovarianceErrorWithinEpsilon) {
  const auto [eps, d, heavy] = GetParam();
  const Timestamp window = 400;
  MatrixExpHistogram meh(d, eps, window);
  ExactWindow exact(d, window);
  Rng rng(91 + d);

  double worst = 0.0;
  for (int i = 0; i < 2500; ++i) {
    const Timestamp t = i + 1;
    const double scale =
        heavy ? std::exp(1.5 * rng.NextGaussian()) : 1.0;
    const TimedRow row = MakeRow(&rng, d, t, scale);
    meh.Insert(row.values.data(), t);
    exact.Add(row);
    exact.Advance(t);
    if (i > 400 && i % 37 == 0) {
      const double fnorm2 = exact.FrobeniusSquared();
      if (fnorm2 <= 0) continue;
      const Matrix approx = meh.QueryCovariance();
      const double err =
          SpectralNormSym(Subtract(exact.Covariance(), approx)) / fnorm2;
      worst = std::max(worst, err);
    }
  }
  EXPECT_LE(worst, eps);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MehProperty,
    ::testing::Values(MehCase{0.3, 6, false}, MehCase{0.15, 6, false},
                      MehCase{0.3, 6, true}, MehCase{0.15, 12, true},
                      MehCase{0.08, 8, false}));

TEST(MatrixExpHistogram, FrobeniusEstimateTracksWindowMass) {
  const int d = 5;
  const Timestamp window = 300;
  MatrixExpHistogram meh(d, 0.2, window);
  ExactWindow exact(d, window);
  Rng rng(3);
  for (int i = 1; i <= 2000; ++i) {
    const TimedRow row = MakeRow(&rng, d, i);
    meh.Insert(row.values.data(), i);
    exact.Add(row);
    exact.Advance(i);
    if (i > 300 && i % 50 == 0) {
      EXPECT_NEAR(meh.FrobeniusSquaredEstimate(), exact.FrobeniusSquared(),
                  0.2 * exact.FrobeniusSquared());
    }
  }
}

TEST(MatrixExpHistogram, QueryRowsMatchesQueryCovariance) {
  const int d = 4;
  MatrixExpHistogram meh(d, 0.25, 100);
  Rng rng(7);
  for (int i = 1; i <= 300; ++i) {
    const TimedRow row = MakeRow(&rng, d, i);
    meh.Insert(row.values.data(), i);
  }
  const Matrix rows = meh.QueryRows();
  EXPECT_LT(MaxAbsDiff(GramTranspose(rows), meh.QueryCovariance()), 1e-9);
  EXPECT_EQ(rows.rows(), meh.TotalRows());
}

TEST(MatrixExpHistogram, DroppedBucketsReportedOnAdvance) {
  const int d = 3;
  MatrixExpHistogram meh(d, 0.3, 50);
  Rng rng(8);
  for (int i = 1; i <= 100; ++i) {
    const TimedRow row = MakeRow(&rng, d, i);
    meh.Insert(row.values.data(), i);
  }
  std::vector<MatrixExpHistogram::Bucket> dropped;
  meh.Advance(500, &dropped);
  EXPECT_FALSE(dropped.empty());
  EXPECT_EQ(meh.TotalRows(), 0);
  EXPECT_DOUBLE_EQ(meh.FrobeniusSquaredEstimate(), 0.0);
  double dropped_mass = 0.0;
  for (const auto& b : dropped) dropped_mass += b.mass;
  EXPECT_GT(dropped_mass, 0.0);
}

TEST(MatrixExpHistogram, SpaceSublinearInStreamLength) {
  const int d = 6;
  MatrixExpHistogram meh(d, 0.2, 5000);
  Rng rng(9);
  long max_words = 0;
  for (int i = 1; i <= 20000; ++i) {
    const TimedRow row = MakeRow(&rng, d, i);
    meh.Insert(row.values.data(), i);
    max_words = std::max(max_words, meh.SpaceWords());
  }
  // Storing all 5000 active rows would take 30000 words.
  EXPECT_LT(max_words, 15000);
}

TEST(MatrixExpHistogram, EmptyQuery) {
  MatrixExpHistogram meh(4, 0.2, 10);
  EXPECT_EQ(meh.QueryRows().rows(), 0);
  EXPECT_DOUBLE_EQ(meh.QueryCovariance().FrobeniusNormSquared(), 0.0);
}

TEST(MatrixExpHistogram, LateInsertSplicesIntoTimeOrder) {
  // A reordered arrival (e.g. a retransmitted upload delivered after the
  // clock advanced) must land in its time-ordered position, count toward
  // the window, and expire on the same schedule as an in-order twin.
  const int d = 3;
  const Timestamp window = 50;
  MatrixExpHistogram meh(d, 0.3, window);
  Rng rng(11);
  for (int t = 1; t <= 100; ++t) {
    const TimedRow row = MakeRow(&rng, d, t);
    meh.Insert(row.values.data(), t);
  }
  const int rows_before = meh.TotalRows();
  const double mass_before = meh.FrobeniusSquaredEstimate();

  const TimedRow late = MakeRow(&rng, d, 80);
  meh.Insert(late.values.data(), 80);  // last_time_ is 100: late path
  EXPECT_EQ(meh.TotalRows(), rows_before + 1);
  EXPECT_GT(meh.FrobeniusSquaredEstimate(), mass_before);

  // The histogram clock never regresses: advancing to the present is
  // still legal, and the late row expires with its own timestamp.
  for (int t = 101; t <= 129; ++t) {
    const TimedRow row = MakeRow(&rng, d, t);
    meh.Insert(row.values.data(), t);
  }
  // Advancing the full clock stays legal (the splice never regressed
  // last_time_) and expiry keeps its invariants (DCHECK'd in Advance).
  meh.Advance(80 + window);
  EXPECT_GT(meh.QueryRows().rows(), 0);
}

TEST(MatrixExpHistogram, LateInsertAlreadyExpiredIsDropped) {
  const int d = 3;
  MatrixExpHistogram meh(d, 0.3, 50);
  Rng rng(12);
  for (int t = 1; t <= 100; ++t) {
    const TimedRow row = MakeRow(&rng, d, t);
    meh.Insert(row.values.data(), t);
  }
  const int rows_before = meh.TotalRows();
  const double mass_before = meh.FrobeniusSquaredEstimate();
  // t = 50 satisfies t <= last_time_ - window: its interval has fully
  // expired, so inserting it would resurrect dropped mass.
  const TimedRow expired = MakeRow(&rng, d, 50);
  meh.Insert(expired.values.data(), 50);
  EXPECT_EQ(meh.TotalRows(), rows_before);
  EXPECT_DOUBLE_EQ(meh.FrobeniusSquaredEstimate(), mass_before);
}

TEST(MatrixExpHistogram, LateInsertKeepsCovarianceAccuracy) {
  // Feeding 10% of rows two ticks late must not break the eps guarantee:
  // the spliced buckets participate in the same merge discipline.
  const int d = 5;
  const double eps = 0.3;
  const Timestamp window = 300;
  MatrixExpHistogram meh(d, eps, window);
  ExactWindow exact(d, window);
  Rng rng(13);
  std::vector<TimedRow> pending;
  double worst = 0.0;
  for (int i = 1; i <= 1500; ++i) {
    const Timestamp t = i;
    const TimedRow row = MakeRow(&rng, d, t);
    exact.Add(row);
    exact.Advance(t);
    if (i % 10 == 0) {
      pending.push_back(row);  // deliver late
    } else {
      meh.Insert(row.values.data(), t);
    }
    while (!pending.empty() && pending.front().timestamp + 2 <= t) {
      meh.Insert(pending.front().values.data(), pending.front().timestamp);
      pending.erase(pending.begin());
    }
    if (i > 400 && i % 41 == 0) {
      const double fnorm2 = exact.FrobeniusSquared();
      if (fnorm2 <= 0) continue;
      const double err =
          SpectralNormSym(Subtract(exact.Covariance(), meh.QueryCovariance())) /
          fnorm2;
      worst = std::max(worst, err);
    }
  }
  EXPECT_LE(worst, eps);
}

}  // namespace
}  // namespace dswm

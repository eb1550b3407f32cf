#include "window/matrix_eh.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <ostream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/batched.h"
#include "linalg/spectral_norm.h"
#include "stream/pamap_like.h"
#include "stream/synthetic.h"
#include "stream/wiki_like.h"
#include "test_util.h"
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

// The mEH as it stood before Compress became an in-place index walk: the
// merge plan erased from a `live` list once per merge, and execution
// rebuilt the whole deque. Insert, InsertLate and Advance are unchanged
// copies, so any difference in the buckets comes from Compress.
class ReferenceMeh {
 public:
  using Bucket = MatrixExpHistogram::Bucket;

  ReferenceMeh(int d, double eps, Timestamp window)
      : d_(d),
        eps_bucket_(eps / 3.0),
        ell_(static_cast<int>(std::ceil(3.0 / eps))),
        window_(window) {}

  void Insert(const double* row, Timestamp t) {
    if (t < last_time_) {
      InsertLate(row, t);
      return;
    }
    last_time_ = t;
    Advance(t);
    Bucket b{FrequentDirections(d_, ell_), NormSquared(row, d_), t, t, false};
    b.fd.Append(row);
    total_mass_ += b.mass;
    buckets_.push_back(std::move(b));
    if (++inserts_since_compress_ >= 4) {
      Compress();
      inserts_since_compress_ = 0;
    }
  }

  void Advance(Timestamp t_now, std::vector<Bucket>* dropped = nullptr) {
    last_time_ = t_now;
    const Timestamp cutoff = t_now - window_;
    while (!buckets_.empty() && buckets_.front().t_newest <= cutoff) {
      total_mass_ -= buckets_.front().mass;
      if (dropped != nullptr) dropped->push_back(std::move(buckets_.front()));
      buckets_.pop_front();
    }
  }

  double FrobeniusSquaredEstimate() const {
    if (buckets_.empty()) return 0.0;
    double est = total_mass_;
    if (buckets_.front().merged) est -= 0.5 * buckets_.front().mass;
    return est;
  }

  const std::deque<Bucket>& buckets() const { return buckets_; }

 private:
  void InsertLate(const double* row, Timestamp t) {
    if (t <= last_time_ - window_) return;
    Bucket b{FrequentDirections(d_, ell_), NormSquared(row, d_), t, t, false};
    b.fd.Append(row);
    total_mass_ += b.mass;
    auto it = buckets_.end();
    while (it != buckets_.begin() && (it - 1)->t_newest > t) --it;
    buckets_.insert(it, std::move(b));
    if (++inserts_since_compress_ >= 4) {
      Compress();
      inserts_since_compress_ = 0;
    }
  }

  void Compress() {
    if (buckets_.size() < 2) return;
    struct MergeGroup {
      size_t dst;
      size_t src_end;
      double mass;
    };
    std::vector<MergeGroup> groups;
    {
      std::vector<std::pair<size_t, double>> live;
      live.reserve(buckets_.size());
      for (size_t b = 0; b < buckets_.size(); ++b) {
        live.emplace_back(b, buckets_[b].mass);
      }
      double prefix = 0.0;
      size_t i = 0;
      while (i + 1 < live.size()) {
        const double pair = live[i].second + live[i + 1].second;
        const double suffix = total_mass_ - prefix - pair;
        if (pair <= eps_bucket_ * suffix) {
          if (!groups.empty() && groups.back().dst == live[i].first) {
            groups.back().src_end = live[i + 1].first + 1;
            groups.back().mass = pair;
          } else {
            groups.push_back({live[i].first, live[i + 1].first + 1, pair});
          }
          live[i].second = pair;
          live.erase(live.begin() + static_cast<long>(i) + 1);
        } else {
          prefix += live[i].second;
          ++i;
        }
      }
    }
    if (groups.empty()) return;
    std::vector<FdShrinkJob> jobs(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      jobs[g].fd = &buckets_[groups[g].dst].fd;
      for (size_t s = groups[g].dst + 1; s < groups[g].src_end; ++s) {
        jobs[g].sources.push_back(&buckets_[s].fd);
      }
    }
    BatchedFdShrink(jobs.data(), static_cast<int>(jobs.size()));
    for (const MergeGroup& g : groups) {
      Bucket& dst = buckets_[g.dst];
      dst.mass = g.mass;
      dst.t_newest = buckets_[g.src_end - 1].t_newest;
      dst.merged = true;
    }
    std::deque<Bucket> kept;
    size_t g = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      while (g < groups.size() && b >= groups[g].src_end) ++g;
      const bool is_source =
          g < groups.size() && b > groups[g].dst && b < groups[g].src_end;
      if (!is_source) kept.push_back(std::move(buckets_[b]));
    }
    buckets_ = std::move(kept);
  }

  int d_;
  double eps_bucket_;
  int ell_;
  Timestamp window_;
  std::deque<Bucket> buckets_;
  double total_mass_ = 0.0;
  Timestamp last_time_ = 0;
  int inserts_since_compress_ = 0;
};

// Bucket by bucket, memcmp-equal: masses, time ranges, merged flags, FD
// row counts and FD rows.
template <typename Buckets>
::testing::AssertionResult SameBuckets(const Buckets& got,
                                       const Buckets& want, int d) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " buckets, reference has " << want.size();
  }
  for (size_t b = 0; b < got.size(); ++b) {
    const auto& x = got[b];
    const auto& y = want[b];
    const bool same =
        std::memcmp(&x.mass, &y.mass, sizeof(double)) == 0 &&
        x.t_oldest == y.t_oldest && x.t_newest == y.t_newest &&
        x.merged == y.merged && x.fd.row_count() == y.fd.row_count();
    if (!same) {
      return ::testing::AssertionFailure() << "bucket " << b << " differs";
    }
    for (int i = 0; i < x.fd.row_count(); ++i) {
      if (std::memcmp(x.fd.Row(i), y.fd.Row(i), sizeof(double) * d) != 0) {
        return ::testing::AssertionFailure()
               << "bucket " << b << " FD row " << i << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

enum class DiffData { kPamap, kSynthetic, kWiki };

struct DiffCase {
  DiffData data;
  bool late;  // every 7th row arrives a few ticks late (InsertLate)
  int threads;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << (c.data == DiffData::kPamap       ? "pamap"
          : c.data == DiffData::kSynthetic ? "synthetic"
                                           : "wiki")
      << (c.late ? " late" : " in-order") << " threads=" << c.threads;
}

std::vector<TimedRow> DiffRows(DiffData data, int rows) {
  switch (data) {
    case DiffData::kPamap: {
      PamapLikeConfig config;
      config.rows = rows;
      PamapLikeGenerator gen(config);
      return Materialize(&gen, rows);
    }
    case DiffData::kSynthetic: {
      SyntheticConfig config;
      config.rows = rows;
      config.dim = 24;
      SyntheticGenerator gen(config);
      return Materialize(&gen, rows);
    }
    case DiffData::kWiki: {
      WikiLikeConfig config;
      config.rows = rows;
      config.dim = 64;
      WikiLikeGenerator gen(config);
      return Materialize(&gen, rows);
    }
  }
  return {};
}

// A list of (row, time) inserts: in order, or with every 7th row held
// back and inserted once the clock has moved `lag` ticks past it.
std::vector<std::pair<const TimedRow*, Timestamp>> InsertOrder(
    const std::vector<TimedRow>& rows, bool late, Timestamp lag) {
  std::vector<std::pair<const TimedRow*, Timestamp>> order;
  std::deque<const TimedRow*> held;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Timestamp t = rows[i].timestamp;
    if (late && i % 7 == 3) {
      held.push_back(&rows[i]);
    } else {
      order.emplace_back(&rows[i], t);
    }
    while (!held.empty() && held.front()->timestamp + lag <= t) {
      order.emplace_back(held.front(), held.front()->timestamp);
      held.pop_front();
    }
  }
  for (const TimedRow* row : held) order.emplace_back(row, row->timestamp);
  return order;
}

class MehDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(MehDifferential, BucketsMatchReferenceAfterEveryInsert) {
  const auto [data, late, threads] = GetParam();
  const std::vector<TimedRow> rows = DiffRows(data, 2400);
  const int d = static_cast<int>(rows.front().values.size());
  const Timestamp span = rows.back().timestamp - rows.front().timestamp;
  const Timestamp window = std::max<Timestamp>(2, span / 5);
  const double eps = 0.15;  // eps_b = 0.05: hundreds of buckets, many merges
  const int saved_threads = ThreadPool::Global()->num_threads();
  ThreadPool::SetGlobalThreads(threads);

  MatrixExpHistogram meh(d, eps, window);
  ReferenceMeh ref(d, eps, window);
  size_t max_buckets = 0;
  long merged_front = 0;  // inserts after which the oldest bucket was merged
  int step = 0;
  for (const auto& [row, t] :
       InsertOrder(rows, late, std::max<Timestamp>(1, window / 50))) {
    meh.Insert(row->values.data(), t);
    ref.Insert(row->values.data(), t);
    ASSERT_TRUE(SameBuckets(meh.buckets(), ref.buckets(), d))
        << "after insert " << step << " at t = " << t;
    const double got = meh.FrobeniusSquaredEstimate();
    const double want = ref.FrobeniusSquaredEstimate();
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << step;
    max_buckets = std::max(max_buckets, meh.buckets().size());
    merged_front += meh.buckets().front().merged ? 1 : 0;
    ++step;
  }
  // The stream must exercise the merge path, not only append buckets.
  EXPECT_GT(max_buckets, 80u);
  EXPECT_GT(merged_front, 0);

  // Expiry hands back the same buckets in the same order.
  std::vector<MatrixExpHistogram::Bucket> dropped;
  std::vector<ReferenceMeh::Bucket> ref_dropped;
  const Timestamp end = rows.back().timestamp + window / 2;
  meh.Advance(end, &dropped);
  ref.Advance(end, &ref_dropped);
  EXPECT_FALSE(dropped.empty());
  EXPECT_TRUE(SameBuckets(dropped, ref_dropped, d));
  EXPECT_TRUE(SameBuckets(meh.buckets(), ref.buckets(), d));
  ThreadPool::SetGlobalThreads(saved_threads);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, MehDifferential,
    ::testing::Values(DiffCase{DiffData::kPamap, false, 1},
                      DiffCase{DiffData::kPamap, true, 1},
                      DiffCase{DiffData::kPamap, true, 4},
                      DiffCase{DiffData::kSynthetic, false, 1},
                      DiffCase{DiffData::kSynthetic, true, 4},
                      DiffCase{DiffData::kWiki, false, 4},
                      DiffCase{DiffData::kWiki, true, 1}));

}  // namespace
}  // namespace dswm

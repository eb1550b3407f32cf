#include "window/exponential_histogram.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stream/pamap_like.h"
#include "stream/synthetic.h"
#include "stream/wiki_like.h"

namespace dswm {
namespace {

// Exact reference for windowed sums.
class ExactSum {
 public:
  explicit ExactSum(Timestamp window) : window_(window) {}
  void Insert(double w, Timestamp t) { items_.push_back({w, t}); }
  double Query(Timestamp now) {
    while (!items_.empty() && items_.front().second <= now - window_) {
      items_.pop_front();
    }
    double s = 0.0;
    for (const auto& [w, t] : items_) s += w;
    return s;
  }

 private:
  Timestamp window_;
  std::deque<std::pair<double, Timestamp>> items_;
};

TEST(ExponentialHistogram, ExactForFewItems) {
  ExponentialHistogram eh(0.1, 100);
  eh.Insert(5.0, 10);
  eh.Insert(3.0, 20);
  EXPECT_DOUBLE_EQ(eh.Query(30), 8.0);
  // After the first item expires (t=10 <= 110-100).
  EXPECT_DOUBLE_EQ(eh.Query(110), 3.0);
  // Everything expired.
  EXPECT_DOUBLE_EQ(eh.Query(300), 0.0);
}

struct EhCase {
  double eps;
  int weight_mode;  // 0 uniform, 1 heavy-tailed, 2 bursty arrivals
};

// Names the case by its fields rather than by its raw bytes, whose padding
// made the ctest name differ between builds.
void PrintTo(const EhCase& c, std::ostream* os) {
  *os << "eps=" << c.eps << " weight_mode=" << c.weight_mode;
}

class EhProperty : public ::testing::TestWithParam<EhCase> {};

TEST_P(EhProperty, RelativeErrorBoundHolds) {
  const auto [eps, mode] = GetParam();
  const Timestamp window = 500;
  ExponentialHistogram eh(eps, window);
  ExactSum exact(window);
  Rng rng(static_cast<uint64_t>(eps * 1000) + mode);

  Timestamp t = 0;
  double max_rel_err = 0.0;
  for (int i = 0; i < 6000; ++i) {
    switch (mode) {
      case 0:
        t += 1;
        break;
      case 1:
        t += 1;
        break;
      case 2:
        // Bursts followed by silence.
        t += (i % 100 == 0) ? 200 : (i % 3 == 0 ? 1 : 0);
        break;
    }
    const double w =
        mode == 1 ? std::exp(4.0 * rng.NextGaussian()) : 1.0 + rng.NextDouble();
    eh.Insert(w, t);
    exact.Insert(w, t);
    if (i % 7 == 0) {
      const double truth = exact.Query(t);
      const double est = eh.Query(t);
      if (truth > 0) {
        max_rel_err = std::max(max_rel_err, std::fabs(est - truth) / truth);
      }
    }
  }
  EXPECT_LE(max_rel_err, eps);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EhProperty,
    ::testing::Values(EhCase{0.3, 0}, EhCase{0.1, 0}, EhCase{0.02, 0},
                      EhCase{0.3, 1}, EhCase{0.1, 1}, EhCase{0.02, 1},
                      EhCase{0.1, 2}, EhCase{0.02, 2}));

TEST(ExponentialHistogram, SpaceStaysLogarithmic) {
  const double eps = 0.1;
  ExponentialHistogram eh(eps, 10000);
  Rng rng(5);
  Timestamp t = 0;
  int max_buckets = 0;
  for (int i = 0; i < 50000; ++i) {
    ++t;
    eh.Insert(1.0 + rng.NextDouble(), t);
    max_buckets = std::max(max_buckets, eh.bucket_count());
  }
  // O((1/eps) log(NR)): generous constant check, but far below N.
  EXPECT_LT(max_buckets, 1200);
  EXPECT_GT(max_buckets, 10);
}

TEST(ExponentialHistogram, RejectsNonPositiveWeight) {
  ExponentialHistogram eh(0.1, 10);
  EXPECT_DEATH(eh.Insert(0.0, 1), "CHECK failed");
}

TEST(ExponentialHistogram, RejectsTimeTravel) {
  ExponentialHistogram eh(0.1, 10);
  eh.Insert(1.0, 5);
  EXPECT_DEATH(eh.Insert(1.0, 4), "CHECK failed");
}

TEST(ExponentialHistogram, EstimateWithoutAdvance) {
  ExponentialHistogram eh(0.5, 100);
  eh.Insert(2.0, 1);
  eh.Insert(3.0, 2);
  EXPECT_DOUBLE_EQ(eh.Estimate(), 5.0);
}

// The gEH as it stood before Compress became an in-place index walk: one
// deque erase per merge. Everything else is an unchanged copy.
class ReferenceEh {
 public:
  ReferenceEh(double eps, Timestamp window) : eps_(eps), window_(window) {}

  void Insert(double w, Timestamp t) {
    last_time_ = t;
    ExpireUpTo(t);
    buckets_.push_back(Bucket{w, t, false});
    total_ += w;
    if (++inserts_since_compress_ >= 8) {
      Compress();
      inserts_since_compress_ = 0;
    }
  }

  double Query(Timestamp t_now) {
    last_time_ = t_now;
    ExpireUpTo(t_now);
    return Estimate();
  }

  double Estimate() const {
    if (buckets_.empty()) return 0.0;
    double est = total_;
    if (buckets_.front().merged) est -= 0.5 * buckets_.front().sum;
    return est;
  }

  int bucket_count() const { return static_cast<int>(buckets_.size()); }

 private:
  struct Bucket {
    double sum;
    Timestamp t_newest;
    bool merged;
  };

  void ExpireUpTo(Timestamp t_now) {
    const Timestamp cutoff = t_now - window_;
    while (!buckets_.empty() && buckets_.front().t_newest <= cutoff) {
      total_ -= buckets_.front().sum;
      buckets_.pop_front();
    }
  }

  void Compress() {
    if (buckets_.size() < 2) return;
    double prefix = 0.0;
    size_t i = 0;
    while (i + 1 < buckets_.size()) {
      const double pair = buckets_[i].sum + buckets_[i + 1].sum;
      const double suffix = total_ - prefix - pair;
      if (pair <= eps_ * suffix) {
        buckets_[i].sum = pair;
        buckets_[i].t_newest = buckets_[i + 1].t_newest;
        buckets_[i].merged = true;
        buckets_.erase(buckets_.begin() + static_cast<long>(i) + 1);
      } else {
        prefix += buckets_[i].sum;
        ++i;
      }
    }
  }

  double eps_;
  Timestamp window_;
  std::deque<Bucket> buckets_;
  double total_ = 0.0;
  Timestamp last_time_ = 0;
  int inserts_since_compress_ = 0;
};

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

enum class DiffData { kPamap, kSynthetic, kWiki };

void PrintTo(DiffData data, std::ostream* os) {
  *os << (data == DiffData::kPamap       ? "pamap"
          : data == DiffData::kSynthetic ? "synthetic"
                                         : "wiki");
}

// Squared row norms (the weights SumTracker sums) of a generated stream.
std::vector<std::pair<double, Timestamp>> DiffWeights(DiffData data,
                                                      int rows) {
  std::vector<TimedRow> stream;
  if (data == DiffData::kPamap) {
    PamapLikeConfig config;
    config.rows = rows;
    PamapLikeGenerator gen(config);
    stream = Materialize(&gen, rows);
  } else if (data == DiffData::kSynthetic) {
    SyntheticConfig config;
    config.rows = rows;
    config.dim = 24;
    SyntheticGenerator gen(config);
    stream = Materialize(&gen, rows);
  } else {
    WikiLikeConfig config;
    config.rows = rows;
    config.dim = 64;
    WikiLikeGenerator gen(config);
    stream = Materialize(&gen, rows);
  }
  std::vector<std::pair<double, Timestamp>> weights;
  for (const TimedRow& row : stream) {
    const double w = row.NormSquared();
    if (w > 0.0) weights.emplace_back(w, row.timestamp);
  }
  return weights;
}

class EhDifferential : public ::testing::TestWithParam<DiffData> {};

TEST_P(EhDifferential, MatchesReferenceAfterEveryInsertAndExpiry) {
  const std::vector<std::pair<double, Timestamp>> weights =
      DiffWeights(GetParam(), 6000);
  const Timestamp span = weights.back().second - weights.front().second;
  const Timestamp window = std::max<Timestamp>(8, span / 5);
  const double eps = 0.0125;  // SumTracker's gEH eps at eps = 0.05
  ExponentialHistogram eh(eps, window);
  ReferenceEh ref(eps, window);

  // Halfway through, the stream pauses for half a window; the clock steps
  // through the pause in eighths, expiring buckets without inserts.
  const size_t pause_at = weights.size() / 2;
  const Timestamp pause = window / 2;
  int max_buckets = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const auto [w, t0] = weights[i];
    const Timestamp t = i < pause_at ? t0 : t0 + pause;
    if (i == pause_at) {
      const Timestamp last = weights[i - 1].second;
      for (Timestamp step = 1; step <= 4; ++step) {
        const Timestamp now = last + step * pause / 4;
        ASSERT_TRUE(BitEqual(eh.Query(now), ref.Query(now))) << now;
        ASSERT_EQ(eh.bucket_count(), ref.bucket_count()) << now;
      }
    }
    eh.Insert(w, t);
    ref.Insert(w, t);
    ASSERT_TRUE(BitEqual(eh.Estimate(), ref.Estimate())) << i;
    ASSERT_EQ(eh.bucket_count(), ref.bucket_count()) << i;
    max_buckets = std::max(max_buckets, eh.bucket_count());
  }
  // Many buckets, so the walk merges at many positions per call.
  EXPECT_GT(max_buckets, 100);
  const Timestamp end = weights.back().second + pause + window / 3;
  EXPECT_TRUE(BitEqual(eh.Query(end), ref.Query(end)));
  EXPECT_EQ(eh.bucket_count(), ref.bucket_count());
}

INSTANTIATE_TEST_SUITE_P(Streams, EhDifferential,
                         ::testing::Values(DiffData::kPamap,
                                           DiffData::kSynthetic,
                                           DiffData::kWiki));

}  // namespace
}  // namespace dswm

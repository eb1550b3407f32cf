#include "window/exponential_histogram.h"

#include <cmath>
#include <deque>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"

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

}  // namespace
}  // namespace dswm

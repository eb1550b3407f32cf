#include "core/sum_tracker.h"

#include <cmath>
#include <deque>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace dswm {
namespace {

// Exact reference: per-site window sums.
class ExactDistributedSum {
 public:
  ExactDistributedSum(int sites, Timestamp window)
      : window_(window), items_(sites) {}
  void Add(int site, double w, Timestamp t) {
    items_[site].push_back({w, t});
  }
  double Query(Timestamp now) {
    double total = 0.0;
    for (auto& q : items_) {
      while (!q.empty() && q.front().second <= now - window_) q.pop_front();
      for (const auto& [w, t] : q) total += w;
    }
    return total;
  }

 private:
  Timestamp window_;
  std::vector<std::deque<std::pair<double, Timestamp>>> items_;
};

struct SumCase {
  double eps;
  int sites;
  bool heavy;
};

// Names the case by its fields rather than by its raw bytes, whose padding
// made the ctest name differ between builds.
void PrintTo(const SumCase& c, std::ostream* os) {
  *os << "eps=" << c.eps << " sites=" << c.sites
      << (c.heavy ? " heavy" : " uniform");
}

class SumTrackerProperty : public ::testing::TestWithParam<SumCase> {};

TEST_P(SumTrackerProperty, RelativeErrorBoundHolds) {
  const auto [eps, sites, heavy] = GetParam();
  const Timestamp window = 600;
  SumTracker tracker(sites, window, eps);
  ExactDistributedSum exact(sites, window);
  Rng rng(11 + sites);

  double worst = 0.0;
  for (int i = 1; i <= 8000; ++i) {
    const Timestamp t = i;
    const int site = static_cast<int>(rng.NextBelow(sites));
    const double w =
        heavy ? std::exp(3.0 * rng.NextGaussian()) : 1.0 + rng.NextDouble();
    EXPECT_TRUE(tracker.AdvanceTime(t).ok());
    ASSERT_TRUE(tracker.Observe(site, w, t).ok());
    exact.Add(site, w, t);
    if (i % 17 == 0) {
      const double truth = exact.Query(t);
      if (truth <= 0) continue;
      worst = std::max(worst,
                       std::fabs(tracker.Estimate() - truth) / truth);
    }
  }
  EXPECT_LE(worst, eps);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SumTrackerProperty,
    ::testing::Values(SumCase{0.3, 1, false}, SumCase{0.1, 1, false},
                      SumCase{0.1, 5, false}, SumCase{0.1, 5, true},
                      SumCase{0.05, 3, true}, SumCase{0.02, 2, false}));

TEST(SumTracker, EstimateDropsToZeroAfterFullExpiry) {
  SumTracker tracker(2, 50, 0.1);
  EXPECT_TRUE(tracker.Observe(0, 10.0, 1).ok());
  EXPECT_TRUE(tracker.Observe(1, 20.0, 2).ok());
  EXPECT_GT(tracker.Estimate(), 0.0);
  EXPECT_TRUE(tracker.AdvanceTime(1000).ok());
  EXPECT_DOUBLE_EQ(tracker.Estimate(), 0.0);
}

TEST(SumTracker, CommunicationScalesLogarithmicallyNotLinearly) {
  const Timestamp window = 2000;
  SumTracker tracker(1, window, 0.1);
  Rng rng(5);
  for (int i = 1; i <= 20000; ++i) {
    EXPECT_TRUE(tracker.AdvanceTime(i).ok());
    ASSERT_TRUE(tracker.Observe(0, 1.0 + rng.NextDouble(), i).ok());
  }
  // 20000 arrivals, 10 windows: O((1/eps) log(NR)) messages per window is
  // a few hundred; sending every arrival would be 20000 messages.
  EXPECT_LT(tracker.Comm().messages, 3000);
  EXPECT_GT(tracker.Comm().messages, 10);
  // One-way protocol: nothing flows down.
  EXPECT_EQ(tracker.Comm().words_down, 0);
}

TEST(SumTracker, TighterEpsilonCostsMoreCommunication) {
  auto run = [](double eps) {
    SumTracker tracker(2, 500, eps);
    Rng rng(6);
    for (int i = 1; i <= 5000; ++i) {
      EXPECT_TRUE(tracker.AdvanceTime(i).ok());
      EXPECT_TRUE(tracker
                      .Observe(static_cast<int>(rng.NextBelow(2)),
                               1.0 + rng.NextDouble(), i)
                      .ok());
    }
    return tracker.Comm().TotalWords();
  };
  EXPECT_GT(run(0.02), run(0.2));
}

TEST(SumTracker, InjectedChannelCarriesTheDeltas) {
  auto channel = std::make_unique<net::LoopbackChannel>(1);
  net::Channel* raw = channel.get();
  SumTracker tracker(1, 100, 0.1, std::move(channel));
  EXPECT_TRUE(tracker.Observe(0, 5.0, 1).ok());
  EXPECT_GT(raw->comm().TotalWords(), 0);
  EXPECT_EQ(tracker.channel(), raw);
  // Every delta is a 1-word kSumDelta frame; the ledger and the derived
  // counters agree byte for byte.
  EXPECT_EQ(raw->ledger().TotalPayloadBytes(), 8 * raw->comm().TotalWords());
  EXPECT_EQ(TotalsOfKind(raw->ledger(), net::MessageKind::kSumDelta).words,
            raw->comm().words_up);
}

TEST(SumTracker, ObserveRejectsBadWeightsAndTimesWithoutStateChange) {
  SumTracker tracker(2, 100, 0.1);
  ASSERT_TRUE(tracker.Observe(0, 4.0, 10).ok());
  ASSERT_TRUE(tracker.Observe(1, 2.0, 3).ok());  // site 1's clock is 3
  const double estimate = tracker.Estimate();
  const long words = tracker.Comm().TotalWords();

  EXPECT_EQ(tracker.Observe(0, 0.0, 11).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tracker.Observe(0, -1.0, 11).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tracker.Observe(0, std::nan(""), 11).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tracker.Observe(0, HUGE_VAL, 11).code(),
            StatusCode::kInvalidArgument);
  // A per-site regression: site 0 has seen t = 10.
  EXPECT_EQ(tracker.Observe(0, 1.0, 9).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tracker.Observe(1, 1.0, -5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tracker.Estimate(), estimate);
  EXPECT_EQ(tracker.Comm().TotalWords(), words);

  // A fresh site clock starts at tick 0.
  SumTracker fresh(1, 100, 0.1);
  EXPECT_EQ(fresh.Observe(0, 1.0, -5).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(fresh.Observe(0, 1.0, 0).ok());

  // Each site keeps its own clock: site 1 may still observe at 5.
  EXPECT_TRUE(tracker.Observe(1, 1.0, 5).ok());
  EXPECT_TRUE(tracker.Observe(0, 1.0, 10).ok());
}

TEST(SumTracker, AdvanceTimeRejectsATimeBeforeAnySiteClock) {
  SumTracker tracker(2, 100, 0.1);
  ASSERT_TRUE(tracker.Observe(0, 4.0, 10).ok());
  const double estimate = tracker.Estimate();
  const long words = tracker.Comm().TotalWords();

  // Site 1 is still at tick 0, but site 0 has seen t = 10.
  EXPECT_EQ(tracker.AdvanceTime(5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tracker.AdvanceTime(-5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tracker.Estimate(), estimate);
  EXPECT_EQ(tracker.Comm().TotalWords(), words);
  EXPECT_TRUE(tracker.Observe(0, 1.0, 10).ok());

  EXPECT_TRUE(tracker.AdvanceTime(10).ok());
  EXPECT_TRUE(tracker.AdvanceTime(1000).ok());
  EXPECT_EQ(tracker.Observe(1, 1.0, 999).code(),
            StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(tracker.Estimate(), 0.0);
}

TEST(SumTracker, SpaceBoundedBySketchNotStream) {
  SumTracker tracker(1, 5000, 0.1);
  Rng rng(7);
  for (int i = 1; i <= 20000; ++i) {
    EXPECT_TRUE(tracker.AdvanceTime(i).ok());
    ASSERT_TRUE(tracker.Observe(0, 1.0 + rng.NextDouble(), i).ok());
  }
  EXPECT_LT(tracker.MaxSiteSpaceWords(), 3000);  // << 5000 active items
}

}  // namespace
}  // namespace dswm

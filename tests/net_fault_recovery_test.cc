// End-to-end fault injection: PWOR under data-plane loss, with and
// without the ack-and-resend reliability shim, and recovery once the
// network heals and the lossy era slides out of the window; then delayed
// frames through whole trackers.
//
// PWOR runs in exact mode (l larger than the window population), so the
// clean-network error is ~0 and any residual error is exactly the
// covariance mass the network lost.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/tracker_factory.h"
#include "net/channel.h"
#include "sketch/covariance.h"
#include "window/exact_window.h"

namespace dswm {
namespace {

constexpr int kDim = 4;
constexpr int kSites = 2;
constexpr Timestamp kWindow = 200;
constexpr double kEpsilon = 0.3;

std::unique_ptr<DistributedTracker> MakeLossyPwor(bool reliable) {
  TrackerConfig config;
  config.dim = kDim;
  config.num_sites = kSites;
  config.window = kWindow;
  config.epsilon = kEpsilon;
  // Exact mode: l comfortably exceeds the <= kWindow rows ever active.
  config.ell_override = 2 * static_cast<int>(kWindow);
  config.seed = 5;
  config.net.drop = 0.5;  // selects the fault injector; phases flip it
  config.net.seed = 7;
  config.net.reliable = reliable;
  config.net.retry = 1;
  auto tracker = MakeTracker(Algorithm::kPwor, config);
  EXPECT_TRUE(tracker.ok());
  return std::move(tracker).value();
}

void SetDrop(DistributedTracker* tracker, double p) {
  for (net::Channel* c : tracker->Channels()) {
    net::FaultyChannel* faulty = c->AsFaulty();
    ASSERT_NE(faulty, nullptr);
    faulty->profile().drop = p;
  }
}

double ErrorAgainst(const ExactWindow& exact,
                    const DistributedTracker& tracker) {
  const CovarianceEstimate approx = tracker.Query();
  const Matrix cov = exact.Covariance();
  const double fnorm2 = exact.FrobeniusSquared();
  return approx.NativeIsRows()
             ? CovarianceErrorOfSketch(cov, approx.Rows(), fnorm2)
             : CovarianceErrorOfCovariance(cov, approx.Covariance(), fnorm2);
}

std::vector<TimedRow> GaussianRows(int n) {
  Rng rng(11);
  std::vector<TimedRow> rows(n);
  for (int i = 0; i < n; ++i) {
    rows[i].timestamp = i + 1;
    rows[i].values.resize(kDim);
    for (double& v : rows[i].values) v = rng.NextGaussian();
  }
  return rows;
}

TEST(NetFaultRecovery, PworDegradesUnderLossAndRecoversAfterwards) {
  const std::vector<TimedRow> rows = GaussianRows(900);

  auto unreliable = MakeLossyPwor(/*reliable=*/false);
  auto reliable = MakeLossyPwor(/*reliable=*/true);
  SetDrop(unreliable.get(), 0.0);
  SetDrop(reliable.get(), 0.0);

  ExactWindow exact(kDim, kWindow);
  const auto feed = [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const int site = i % kSites;
      EXPECT_TRUE(unreliable->Observe(site, rows[i]).ok());
      EXPECT_TRUE(reliable->Observe(site, rows[i]).ok());
      exact.Add(rows[i]);
      exact.Advance(rows[i].timestamp);
    }
  };

  // Phase A: clean network for two windows. Exact mode => error ~ 0.
  feed(0, 400);
  const double err_clean_unreliable = ErrorAgainst(exact, *unreliable);
  const double err_clean_reliable = ErrorAgainst(exact, *reliable);
  EXPECT_LT(err_clean_unreliable, 0.02);
  EXPECT_LT(err_clean_reliable, 0.02);

  // Phase B: 50% data-plane loss for one full window.
  SetDrop(unreliable.get(), 0.5);
  SetDrop(reliable.get(), 0.5);
  feed(400, 600);
  const double err_lossy_unreliable = ErrorAgainst(exact, *unreliable);
  const double err_lossy_reliable = ErrorAgainst(exact, *reliable);

  // Without the shim, half the window's covariance mass is gone: for
  // N(0, I_d) rows the spectral error plateaus near drop/d ~ 0.125.
  EXPECT_GT(err_lossy_unreliable, 0.06);
  // With ack-and-resend, every lost row is retransmitted one tick later:
  // at most the last tick's frames are still in flight.
  EXPECT_LT(err_lossy_reliable, 0.05);
  EXPECT_GT(err_lossy_unreliable, 2.0 * err_lossy_reliable);

  // The shim's price is visible in the ledger: retransmissions and acks.
  long drops_unreliable = 0;
  for (const net::Channel* c : unreliable->Channels()) {
    for (const net::LedgerEntry& e : c->ledger().entries()) {
      drops_unreliable += e.dropped ? 1 : 0;
      EXPECT_FALSE(e.retransmit);  // nobody resends without the shim
    }
  }
  EXPECT_GT(drops_unreliable, 0);
  long retransmits = 0;
  long acks = 0;
  for (const net::Channel* c : reliable->Channels()) {
    for (const net::LedgerEntry& e : c->ledger().entries()) {
      retransmits += e.retransmit ? 1 : 0;
      acks += e.kind == net::MessageKind::kAck ? 1 : 0;
    }
  }
  EXPECT_GT(retransmits, 0);
  EXPECT_GT(acks, 0);
  // Reliability costs words: the reliable run sent strictly more.
  EXPECT_GT(reliable->Comm().TotalWords(), unreliable->Comm().TotalWords());

  // Phase C: the network heals. After the lossy era slides fully out of
  // the window, the unreliable tracker's sample is whole again.
  SetDrop(unreliable.get(), 0.0);
  SetDrop(reliable.get(), 0.0);
  feed(600, 900);
  const double err_recovered = ErrorAgainst(exact, *unreliable);
  EXPECT_LT(err_recovered, kEpsilon * 1.5);  // the paper-level guarantee
  EXPECT_LT(err_recovered, 0.02);            // and in fact exact again
  EXPECT_LT(ErrorAgainst(exact, *reliable), 0.02);
}

// Delayed frames need no clock of their own: a frame sent at tick t with
// delay k lands inside the first Observe or AdvanceTime that reaches
// t + k. Frames are in flight while the stream runs but never overdue,
// AdvanceTime(last + delay_max) lands every one of them, and the estimate
// is then within the guarantee.
TEST(NetFaultRecovery, DelayedFramesLandInsideTrackerCalls) {
  constexpr Timestamp kDelayMax = 4;
  const std::vector<TimedRow> rows = GaussianRows(900);
  for (Algorithm algorithm : {Algorithm::kPwor, Algorithm::kDa1,
                              Algorithm::kDa2, Algorithm::kCentral}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    TrackerConfig config;
    config.dim = kDim;
    config.num_sites = kSites;
    config.window = kWindow;
    config.epsilon = kEpsilon;
    if (algorithm == Algorithm::kPwor) {
      config.ell_override = 2 * static_cast<int>(kWindow);  // exact mode
    }
    config.seed = 5;
    config.net.delay_min = 1;
    config.net.delay_max = kDelayMax;
    config.net.seed = 7;
    auto made = MakeTracker(algorithm, config);
    ASSERT_TRUE(made.ok()) << made.status().message();
    DistributedTracker* tracker = made.value().get();

    // Frames still queued after a tracker call at tick `now`. None may be
    // due by then, so advancing each channel to `now` again delivers
    // nothing: its queue and its ledger stay as they were.
    const auto frames_in_flight = [tracker](Timestamp now) {
      long frames = 0;
      for (net::Channel* c : tracker->Channels()) {
        net::FaultyChannel* faulty = c->AsFaulty();
        EXPECT_NE(faulty, nullptr);
        if (faulty == nullptr) continue;
        const long queued = faulty->in_flight();
        const size_t recorded = faulty->ledger().entries().size();
        faulty->AdvanceTime(now);
        EXPECT_EQ(faulty->in_flight(), queued);
        EXPECT_EQ(faulty->ledger().entries().size(), recorded);
        frames += queued;
      }
      return frames;
    };

    ExactWindow exact(kDim, kWindow);
    long max_in_flight = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(tracker->Observe(static_cast<int>(i % kSites), rows[i]).ok());
      exact.Add(rows[i]);
      exact.Advance(rows[i].timestamp);
      max_in_flight =
          std::max(max_in_flight, frames_in_flight(rows[i].timestamp));
    }
    EXPECT_GT(max_in_flight, 0);

    const Timestamp drained = rows.back().timestamp + kDelayMax;
    EXPECT_TRUE(tracker->AdvanceTime(drained).ok());
    exact.Advance(drained);
    EXPECT_EQ(frames_in_flight(drained), 0);
    const double err = ErrorAgainst(exact, *tracker);
    EXPECT_LE(err, kEpsilon);
    if (algorithm == Algorithm::kPwor) {
      EXPECT_LT(err, 0.02);
    }
  }
}

}  // namespace
}  // namespace dswm

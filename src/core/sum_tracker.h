// Deterministic SUM tracking over distributed sliding windows
// (Algorithm 3, Theorem 1).
//
// Each site keeps a generalized exponential histogram of its window sum C
// and the coordinator's current estimate C_hat for this site; when
// |C - C_hat| > eps' * C it ships the delta D (one word). The coordinator
// sums the m per-site estimates. Internal slack (eps' = eps/2, gEH at
// eps/4) absorbs the histogram's own approximation so the end-to-end
// relative error stays below eps.
//
// This is both a standalone public tracker (SUM is matrix tracking with
// d = 1) and the subroutine ES sampling uses to track ||A_w||_F^2. All
// deltas travel through a net::Channel as kSumDelta frames; the
// coordinator's sum is updated only when a frame is delivered, so under a
// faulty channel the estimate lags or loses exactly the deltas the
// network loses.

#ifndef DSWM_CORE_SUM_TRACKER_H_
#define DSWM_CORE_SUM_TRACKER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "monitor/comm_stats.h"
#include "net/channel.h"
#include "window/exponential_histogram.h"

namespace dswm {

/// Tracks the sum of positive weights in the window across m sites with
/// relative error <= eps.
class SumTracker {
 public:
  /// If `channel` is null, a deterministic loopback channel is created.
  /// The tracker owns the channel and installs its delivery handler.
  SumTracker(int num_sites, Timestamp window, double eps,
             std::unique_ptr<net::Channel> channel = nullptr);

  /// Weight w (> 0) arrives at `site` at time t (non-decreasing).
  /// InvalidArgument, with no state change, on an out-of-range site, a
  /// weight that is not finite and positive, or a time before the site's
  /// clock (which starts at 0 and advances with Observe and AdvanceTime),
  /// matching the DistributedTracker Observe contract.
  Status Observe(int site, double w, Timestamp t);

  /// Advances the clock; sites re-check their thresholds because expiry
  /// shrinks C even without arrivals. InvalidArgument, with no state
  /// change, on a time before any site's clock.
  [[nodiscard]] Status AdvanceTime(Timestamp t);

  /// AdvanceTime() for a `t` already checked against every site's clock:
  /// for an enclosing protocol, whose own clock is validated.
  void Advance(Timestamp t);

  /// Coordinator's estimate of the window sum.
  [[nodiscard]] double Estimate() const { return coordinator_sum_; }

  [[nodiscard]] const CommStats& Comm() const { return channel_->comm(); }

  /// The transport this tracker sends through.
  [[nodiscard]] net::Channel* channel() const { return channel_.get(); }

  /// Coordinator-side application of one delivered delta. Public so an
  /// enclosing protocol routing a shared channel can forward kSumDelta
  /// frames here.
  void ApplyDelta(double delta) { coordinator_sum_ += delta; }

  /// Space (words) of the most loaded site: gEH buckets + C_hat.
  [[nodiscard]] long MaxSiteSpaceWords() const;

 private:
  struct SiteState {
    ExponentialHistogram histogram;
    double reported;  // C_hat for this site (site and coordinator agree)
  };

  void CheckSite(int site, Timestamp t);

  double eps_report_;
  std::vector<SiteState> sites_;
  double coordinator_sum_ = 0.0;
  std::unique_ptr<net::Channel> channel_;
};

}  // namespace dswm

#endif  // DSWM_CORE_SUM_TRACKER_H_

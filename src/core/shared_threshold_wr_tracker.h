// Sampling with replacement under a *shared* threshold (the refinement
// the paper adopts from Cormode et al. [2] at the end of Section II-A).
//
// The direct PWR construction keeps l independent thresholds, so every
// sampler's threshold move costs a broadcast -- O(l log NR) threshold
// synchronizations per window. Here all l samplers share one threshold
// tau: a site ships (row, sampler, key) whenever that sampler's key
// reaches tau, and the coordinator adjusts tau lazily (double-style raise
// when it holds too much, halve-and-collect when some sampler runs dry),
// exactly one broadcast per adjustment regardless of l.
//
// Per-row site work remains Theta(l) -- intrinsic to with-replacement
// sampling -- but threshold traffic drops from l broadcasts to one.

#ifndef DSWM_CORE_SHARED_THRESHOLD_WR_TRACKER_H_
#define DSWM_CORE_SHARED_THRESHOLD_WR_TRACKER_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/sum_tracker.h"
#include "core/tracker.h"
#include "core/tracker_config.h"
#include "net/channel.h"
#include "sampling/priority.h"

namespace dswm {

/// PWR / ESWR with one shared threshold across the l samplers.
class SharedThresholdWrTracker : public DistributedTracker {
 public:
  SharedThresholdWrTracker(const TrackerConfig& config,
                           SamplingScheme scheme);

  Status Observe(int site, const TimedRow& row) override;
  CovarianceEstimate Query() const override;
  const CommStats& Comm() const override;
  std::vector<net::Channel*> Channels() const override;
  long MaxSiteSpaceWords() const override;
  std::string Name() const override { return name_; }
  int Dim() const override { return config_.dim; }

  int ell() const { return ell_; }
  double threshold() const { return tau_; }
  /// Number of samplers whose coordinator set currently holds at least
  /// one active entry (tests: must be l once enough rows are active).
  int SamplersWithSample() const;

 private:
  void Advance(Timestamp t) override;

  // A site-queued candidate: the row (shared across samplers to avoid l
  // copies) plus this sampler's key.
  struct Pending {
    std::shared_ptr<const TimedRow> row;
    double key;
  };
  struct SiteState {
    // Per-sampler queue, newest-dominates with l=1: only the best
    // pending key per sampler survives, plus arrival order for expiry.
    std::vector<std::list<Pending>> queues;  // size ell
    Rng rng;
  };
  // Coordinator-held entry for one sampler.
  struct CoordEntryWr {
    std::shared_ptr<const TimedRow> row;
    double key;
    Timestamp timestamp;
  };

  void OnDelivery(net::Delivery d);
  void Ship(int site, int sampler, const TimedRow& row, double key);
  void BroadcastThreshold();
  void Maintain();
  bool AnythingOutstanding() const;

  TrackerConfig config_;
  SamplingScheme scheme_;
  std::string name_;
  int ell_;
  double tau_;
  std::vector<SiteState> sites_;
  // Per sampler: active entries with key >= tau, newest-best first.
  std::vector<std::vector<CoordEntryWr>> held_;  // size ell
  Timestamp now_;
  std::unique_ptr<net::Channel> channel_;
  mutable CommStats comm_cache_;  // this channel + the fnorm tracker's
  SumTracker fnorm_tracker_;
  long total_held_ = 0;
};

}  // namespace dswm

#endif  // DSWM_CORE_SHARED_THRESHOLD_WR_TRACKER_H_

// Sampling-based covariance-sketch tracking over distributed sliding
// windows (Section II): PWOR / PWOR-ALL (priority sampling) and
// ESWOR / ESWOR-ALL (ES sampling), under either the simple protocol
// (Algorithm 1) or the lazy-broadcast protocol (Algorithm 2).
//
// The coordinator tracks the set S of active rows with top-l priorities;
// each site queues sub-threshold rows until they expire or become
// right-l-dominated. The sketch rescales the samples into unbiased
// covariance estimators:
//   * priority sampling: row i scaled to squared norm
//     v_i = max(||a_i||^2, tau_l)            (Duffield et al. [26]);
//   * ES sampling: row i scaled by ||A_w||_F / (sqrt(l) ||a_i||), with
//     ||A_w||_F^2 tracked by the deterministic SUM tracker whose
//     communication is charged to this protocol (the paper's observed
//     extra cost of ES sampling).
//
// All traffic travels through a net::Channel: rows ship as kRowUpload
// frames and enter S only when delivered, so a faulty channel loses
// exactly the samples the network loses. The threshold negotiation
// (retrieve request/reply, tau broadcasts) is sent for accounting but the
// simulated protocol reads the shared threshold state synchronously --
// the control plane is reliable by construction (see channel.h).

#ifndef DSWM_CORE_SAMPLING_TRACKER_H_
#define DSWM_CORE_SAMPLING_TRACKER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/sum_tracker.h"
#include "core/tracker.h"
#include "core/tracker_config.h"
#include "net/channel.h"
#include "sampling/priority.h"
#include "sampling/sample_set.h"
#include "sampling/site_queue.h"

namespace dswm {

/// PWOR / ESWOR family tracker.
class SamplingTracker : public DistributedTracker {
 public:
  /// `use_all_samples` selects the -ALL estimator variants that rescale
  /// every row available at the coordinator (S plus the candidate set S')
  /// instead of exactly the top-l. `track_fnorm` (ES schemes only)
  /// disables the internal ||A_w||_F^2 SUM tracker when an enclosing
  /// protocol provides its own (the WR wrapper does). `channel_salt`
  /// decorrelates the fault RNG when an enclosing protocol owns several
  /// samplers sharing one NetProfile seed.
  SamplingTracker(const TrackerConfig& config, SamplingScheme scheme,
                  bool use_all_samples, bool track_fnorm = true,
                  uint64_t channel_salt = 0);

  Status Observe(int site, const TimedRow& row) override;
  CovarianceEstimate Query() const override;
  const CommStats& Comm() const override;
  std::vector<net::Channel*> Channels() const override;
  long MaxSiteSpaceWords() const override;
  std::string Name() const override { return name_; }
  int Dim() const override { return config_.dim; }

  /// Sample-set size l in use.
  int ell() const { return ell_; }
  /// Current threshold tau (tests).
  double threshold() const { return tau_; }
  /// Coordinator sample-set sizes (tests).
  int sample_set_size() const { return s_.size(); }
  int candidate_set_size() const { return s_prime_.size(); }
  /// The sampled rows (unscaled) the estimator would use, with their keys;
  /// exposed for the top-l oracle invariant tests.
  std::vector<const CoordEntry*> CurrentSamples() const;
  /// Largest priority key still held outside the sample set S (site queues
  /// and the candidate set S'), or -infinity; the protocol invariant is
  /// that it never exceeds the threshold, so S always contains the global
  /// top-l priorities among active rows.
  double MaxOutstandingKey() const;

 private:
  void Advance(Timestamp t) override;

  // The WR wrapper checks each row once for all of its samplers.
  friend class WithReplacementTracker;

  struct SiteState {
    SiteSampleQueue queue;
    Rng rng;
  };

  /// Observe() minus its precondition check; only the WR wrapper, which
  /// ran that check itself, calls it.
  Status ObserveChecked(int site, const TimedRow& row);

  void OnDelivery(net::Delivery d);
  void Maintain();
  void MaintainSimple();
  void MaintainLazy();
  void ShipToCoordinator(int site, TimedRow row, double key);
  void BroadcastThreshold();
  bool AnyRowOutstanding() const;

  TrackerConfig config_;
  SamplingScheme scheme_;
  bool use_all_;
  int ell_;
  std::string name_;

  double tau_;
  std::vector<SiteState> sites_;
  KeyedSampleSet s_;        // top-l samples
  KeyedSampleSet s_prime_;  // candidate set
  Timestamp now_;
  std::unique_ptr<net::Channel> channel_;
  mutable CommStats comm_cache_;               // this channel + fnorm's
  std::unique_ptr<SumTracker> fnorm_tracker_;  // ES schemes only
};

}  // namespace dswm

#endif  // DSWM_CORE_SAMPLING_TRACKER_H_

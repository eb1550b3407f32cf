// DA2: second deterministic protocol for tracking a covariance sketch
// (Algorithm 5), built on the forward-backward framework [28] and the
// IWMT significant-direction protocol [1] accelerated by Frequent
// Directions [13].
//
// Time is cut into windows (kW, (k+1)W]. Per site:
//  * IWMT_a (forward) tracks arrivals of the active window and ships
//    positive directions (flag +1).
//  * At each boundary kW the site replays the just-ended window's rows
//    (stored compactly in a matrix exponential histogram) in reverse time
//    order through IWMT_c, recording its outputs in a queue Q with their
//    original (bucket-granular) timestamps.
//  * During the next window, entries of Q are fed into IWMT_e as they
//    expire; its outputs ship as negative directions (flag -1).
// The coordinator maintains, per site, C_active (sum of forward outputs)
// and C_expiring (previous window's estimate minus backward outputs) and
// answers with their sum. At each boundary it rebases C_expiring :=
// C_active, discarding the stale residue so approximation drift cannot
// accumulate across windows (see DESIGN.md item 5). Communication is
// strictly one-way (sites -> coordinator).
//
// DA2 never eigendecomposes a d x d matrix on the update path -- only the
// small residual sketches -- which is why it scales to large d where DA1
// does not (Section IV-B).

#ifndef DSWM_CORE_DA2_TRACKER_H_
#define DSWM_CORE_DA2_TRACKER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/iwmt.h"
#include "core/tracker.h"
#include "core/tracker_config.h"
#include "net/channel.h"
#include "window/matrix_eh.h"

namespace dswm {

/// Deterministic tracker DA2 (Algorithm 5).
class Da2Tracker : public DistributedTracker {
 public:
  explicit Da2Tracker(const TrackerConfig& config);

  Status Observe(int site, const TimedRow& row) override;
  CovarianceEstimate Query() const override;
  const CommStats& Comm() const override { return channel_->comm(); }
  std::vector<net::Channel*> Channels() const override {
    return {channel_.get()};
  }
  long MaxSiteSpaceWords() const override;
  std::string Name() const override { return "DA2"; }
  int Dim() const override { return config_.dim; }

  /// Window boundaries crossed so far, including those a far time jump
  /// counts without processing: after two boundaries with no row between
  /// them, a site's window state is empty and later boundaries change
  /// nothing (tests).
  long boundaries_processed() const { return boundaries_; }

 private:
  void Advance(Timestamp t) override;

  struct QEntry {
    std::vector<double> direction;
    Timestamp timestamp;
  };

  struct SiteState {
    MatrixExpHistogram meh;      // current-window rows, compactly
    IwmtProtocol iwmt_a;         // forward tracking of arrivals
    std::unique_ptr<IwmtProtocol> iwmt_e;  // backward (fresh per window)
    std::vector<QEntry> q;       // replay outputs, descending timestamp
    Matrix c_active;             // coordinator: forward accumulation
    Matrix c_expiring;           // coordinator: expiring-window estimate
    Timestamp next_boundary;
  };

  void ProcessBoundary(int site, SiteState* st, Timestamp boundary);
  void FeedExpired(int site, SiteState* st, Timestamp t);
  void ShipForward(int site, const std::vector<IwmtOutput>& outs);
  void ShipBackward(int site, const std::vector<IwmtOutput>& outs);
  double SiteTheta(const SiteState& st, double fallback_mass) const;

  TrackerConfig config_;
  double eps_threshold_;  // eps/2: IWMT_a and IWMT_e threshold factor
  int ell_fd_;
  std::vector<SiteState> sites_;
  Timestamp now_;
  bool initialized_ = false;
  std::unique_ptr<net::Channel> channel_;
  long boundaries_ = 0;
};

}  // namespace dswm

#endif  // DSWM_CORE_DA2_TRACKER_H_

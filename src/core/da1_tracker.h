// DA1: first deterministic protocol for tracking a covariance sketch
// (Algorithm 4).
//
// Each site tracks D = C - C_hat, the gap between its sliding-window
// covariance (maintained space-efficiently through a matrix exponential
// histogram) and what the coordinator currently believes for this site.
// When ||D||_2 crosses eps_t * ||A_w||_F^2 the site eigendecomposes D and
// ships the significant eigenpairs (lambda_i, v_i), d+1 words each; both
// parties apply C_hat += lambda_i v_i^T v_i. One-way communication only.
//
// Engineering notes (ablatable; DESIGN.md item 4):
//  * Lazy spectral check -- ||D|| can grow by at most the squared-norm
//    mass that arrived/expired since the last check, so the norm check
//    runs only when that bound crosses the threshold.
//  * Krylov check and decomposition -- the norm check is a Lanczos run on
//    D, warm-started from the site's last top Ritz vector. When it fires,
//    the same run is extended until the Ritz pairs above the cut
//    converge, and they ship only if CertifyNormBelow proves
//    ||D - sum shipped|| below the cut; otherwise the full d x d
//    SymmetricEigen decides, as it always did.
//  * The site covariance C is maintained incrementally: arrivals add
//    a^T a; a dropped mEH bucket subtracts its sketch covariance; the
//    accumulated FD-shrinkage drift is wiped by re-deriving C from the
//    mEH once per window. All drift terms are inside the mEH error
//    budget.

#ifndef DSWM_CORE_DA1_TRACKER_H_
#define DSWM_CORE_DA1_TRACKER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/tracker.h"
#include "core/tracker_config.h"
#include "linalg/lanczos.h"
#include "net/channel.h"
#include "window/matrix_eh.h"

namespace dswm {

/// Deterministic tracker DA1 (Algorithm 4).
class Da1Tracker : public DistributedTracker {
 public:
  explicit Da1Tracker(const TrackerConfig& config);

  Status Observe(int site, const TimedRow& row) override;
  CovarianceEstimate Query() const override;
  const CommStats& Comm() const override { return channel_->comm(); }
  std::vector<net::Channel*> Channels() const override {
    return {channel_.get()};
  }
  long MaxSiteSpaceWords() const override;
  std::string Name() const override { return "DA1"; }
  int Dim() const override { return config_.dim; }

  /// Number of decompositions (reports) performed (tests/ablation).
  long decompositions() const { return decompositions_; }
  /// Decompositions the Krylov path left to SymmetricEigen.
  long fallbacks() const { return fallbacks_; }
  /// Number of threshold checks that ran the Lanczos norm check.
  long norm_checks() const { return norm_checks_; }

 private:
  void Advance(Timestamp t) override;

  struct SiteState {
    MatrixExpHistogram meh;
    Matrix c;               // incremental window covariance (site side)
    Matrix c_hat;           // coordinator's view of this site
    double last_gap_norm;   // estimate of ||D|| after the last check
    double mass_since_check;
    Timestamp next_rebuild; // wipe incremental drift when passed
    std::vector<double> warm;  // start of the next norm check's run
  };

  void NoteExpirations(SiteState* st, Timestamp t);
  void MaybeReport(int site, SiteState* st, Timestamp t);
  double CheckNorm(const std::vector<double>& warm);
  bool StepRun();
  bool RitzPairsConverged(double send_cut) const;
  void KeepTopRitzVector(SiteState* st);
  bool ShipRitzPairs(int site, SiteState* st, double send_cut);
  void ShipEigenpairs(int site, SiteState* st, double send_cut);
  void Send(int site, SiteState* st, double lambda, const double* v);

  TrackerConfig config_;
  double eps_threshold_;
  std::vector<SiteState> sites_;
  Matrix coordinator_c_hat_;
  // Scratch of the site being checked, shared by all sites and sized on
  // the first check: D = C - C_hat, the Lanczos run on it, its start
  // vector, the fixed perturbation added to every start, and the Ritz
  // vectors about to ship.
  Matrix gap_;
  SymmetricApplyFn apply_gap_;  // y = D x
  Lanczos lanczos_;
  std::vector<double> start_;
  std::vector<double> dash_;
  std::vector<double> ritz_;  // row-major
  Timestamp now_;
  std::unique_ptr<net::Channel> channel_;
  long decompositions_ = 0;
  long fallbacks_ = 0;
  long norm_checks_ = 0;
};

}  // namespace dswm

#endif  // DSWM_CORE_DA1_TRACKER_H_

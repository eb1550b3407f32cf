// Naive centralization baseline: every site forwards every row to the
// coordinator, which runs a (centralized) sliding-window covariance
// sketch -- a matrix exponential histogram.
//
// This is the trivial protocol every algorithm in the paper is implicitly
// compared against: it is exact up to the mEH guarantee but its
// communication is the entire stream, Theta(n*d) words per window. Used
// as the reference row in the ablation bench and in tests.
//
// Rows travel as kRowUpload frames (d + 1 words: row + timestamp) and
// enter the coordinator's mEH only on delivery.

#ifndef DSWM_CORE_CENTRALIZED_TRACKER_H_
#define DSWM_CORE_CENTRALIZED_TRACKER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/tracker.h"
#include "core/tracker_config.h"
#include "net/channel.h"
#include "window/matrix_eh.h"

namespace dswm {

/// Ship-everything baseline tracker.
class CentralizedTracker : public DistributedTracker {
 public:
  explicit CentralizedTracker(const TrackerConfig& config);

  Status Observe(int site, const TimedRow& row) override;
  CovarianceEstimate Query() const override;
  const CommStats& Comm() const override { return channel_->comm(); }
  std::vector<net::Channel*> Channels() const override {
    return {channel_.get()};
  }
  long MaxSiteSpaceWords() const override { return 0; }  // sites stateless
  std::string Name() const override { return "CENTRAL"; }
  int Dim() const override { return config_.dim; }

 private:
  void Advance(Timestamp t) override;

  TrackerConfig config_;
  MatrixExpHistogram meh_;
  std::unique_ptr<net::Channel> channel_;
};

}  // namespace dswm

#endif  // DSWM_CORE_CENTRALIZED_TRACKER_H_

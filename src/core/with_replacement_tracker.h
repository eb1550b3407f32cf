// Sampling *with* replacement (PWR / ESWR, Section II-A end & II-B).
//
// l independent single-sample trackers run side by side, each using the
// without-replacement machinery to maintain O(1) samples with its own
// threshold (the paper's direct construction; the shared-threshold
// refinement of [2] is future work). Every row is offered to every
// sampler, so update cost is Theta(l) per row -- the reason the paper
// excludes the WR schemes from its large-scale experiments; they are
// provided for completeness and exercised by the test suite at small l.

#ifndef DSWM_CORE_WITH_REPLACEMENT_TRACKER_H_
#define DSWM_CORE_WITH_REPLACEMENT_TRACKER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/sampling_tracker.h"
#include "core/sum_tracker.h"

namespace dswm {

/// PWR / ESWR tracker: l independent single-sample protocols.
class WithReplacementTracker : public DistributedTracker {
 public:
  WithReplacementTracker(const TrackerConfig& config, SamplingScheme scheme);

  Status Observe(int site, const TimedRow& row) override;
  CovarianceEstimate Query() const override;
  const CommStats& Comm() const override;
  std::vector<net::Channel*> Channels() const override;
  long MaxSiteSpaceWords() const override;
  std::string Name() const override { return name_; }
  int Dim() const override { return config_.dim; }

  int ell() const { return static_cast<int>(samplers_.size()); }

 private:
  void Advance(Timestamp t) override;

  TrackerConfig config_;
  SamplingScheme scheme_;
  std::string name_;
  std::vector<std::unique_ptr<SamplingTracker>> samplers_;
  SumTracker fnorm_tracker_;
  mutable CommStats aggregate_;
};

}  // namespace dswm

#endif  // DSWM_CORE_WITH_REPLACEMENT_TRACKER_H_

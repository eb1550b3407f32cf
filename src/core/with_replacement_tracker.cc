#include "core/with_replacement_tracker.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sampling/scaled_rows.h"

namespace dswm {

WithReplacementTracker::WithReplacementTracker(const TrackerConfig& config,
                                               SamplingScheme scheme)
    : config_(config),
      scheme_(scheme),
      name_(scheme == SamplingScheme::kPriority ? "PWR" : "ESWR"),
      fnorm_tracker_(config.num_sites, config.window, config.epsilon / 2.0,
                     MakeTrackerChannel(config, 1)) {
  DSWM_CHECK(config.Validate().ok());
  const int ell = config.SampleSize();
  samplers_.reserve(ell);
  for (int i = 0; i < ell; ++i) {
    TrackerConfig sub = config;
    sub.ell_override = 1;
    sub.seed = config.seed + 7919ULL * (i + 1);
    // Each sub-sampler tracks a single sample without replacement; the
    // union over independent samplers is a with-replacement sample. The
    // shared SumTracker below replaces the samplers' own F-norm tracking.
    // Distinct channel salts keep per-sampler fault patterns independent.
    samplers_.push_back(std::make_unique<SamplingTracker>(
        sub, scheme, /*use_all_samples=*/false, /*track_fnorm=*/false,
        /*channel_salt=*/static_cast<uint64_t>(i) + 1));
  }
}

Status WithReplacementTracker::Observe(int site, const TimedRow& row) {
  DSWM_RETURN_NOT_OK(ValidateObserve(site, config_.num_sites, row));
  const double w = row.NormSquared();
  if (w <= 0.0) return Status::OK();
  for (auto& s : samplers_) {
    // The wrapper's precondition check covers the sub-samplers too (same
    // site range, timestamps and row), so the row is read only once.
    DSWM_RETURN_NOT_OK(s->ObserveChecked(site, row));
  }
  DSWM_RETURN_NOT_OK(fnorm_tracker_.Observe(site, w, row.timestamp));
  return Status::OK();
}

void WithReplacementTracker::Advance(Timestamp t) {
  for (auto& s : samplers_) s->Advance(t);
  fnorm_tracker_.Advance(t);
}

CovarianceEstimate WithReplacementTracker::Query() const {
  const double fnorm2 = std::max(fnorm_tracker_.Estimate(), 0.0);
  std::vector<const CoordEntry*> picks;
  for (const auto& s : samplers_) {
    const std::vector<const CoordEntry*> top = s->CurrentSamples();
    if (!top.empty()) picks.push_back(top.front());
  }
  const int k = static_cast<int>(picks.size());
  std::vector<const TimedRow*> picked(k);
  for (int i = 0; i < k; ++i) picked[i] = &picks[i]->row;
  // Standard WR estimator: each draw has P(row) ~ w / F^2, so the
  // contribution is rescaled to squared norm F^2 / k.
  Matrix sketch_rows = MaterializeScaledRows(
      picked, config_.dim, [fnorm2, k](int /*i*/, double w) {
        return std::sqrt(fnorm2 / (static_cast<double>(k) * w));
      });
  return CovarianceEstimate::FromRows(std::move(sketch_rows));
}

const CommStats& WithReplacementTracker::Comm() const {
  aggregate_ = CommStats();
  for (const auto& s : samplers_) aggregate_.Add(s->Comm());
  aggregate_.Add(fnorm_tracker_.Comm());
  return aggregate_;
}

std::vector<net::Channel*> WithReplacementTracker::Channels() const {
  std::vector<net::Channel*> out;
  for (const auto& s : samplers_) {
    for (net::Channel* c : s->Channels()) out.push_back(c);
  }
  out.push_back(fnorm_tracker_.channel());
  return out;
}

long WithReplacementTracker::MaxSiteSpaceWords() const {
  // Estimate: the samplers are independent, so a site's space is the
  // sum of its per-sampler queues; we report the sum of per-sampler
  // maxima (an upper bound).
  long total = 0;
  for (const auto& s : samplers_) total += s->MaxSiteSpaceWords();
  return total + fnorm_tracker_.MaxSiteSpaceWords();
}

}  // namespace dswm

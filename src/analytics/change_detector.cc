#include "analytics/change_detector.h"

#include <utility>

#include "serve/snapshot.h"

namespace dswm {

StatusOr<ChangeDetector> ChangeDetector::FromSnapshot(
    const serve::Snapshot& reference, const ChangeDetectorOptions& options) {
  if (options.components < 1) {
    return Status::InvalidArgument("components must be >= 1");
  }
  if (options.calibration_updates < 1) {
    return Status::InvalidArgument("calibration_updates must be >= 1");
  }
  auto pca = ApproxPca::FromSnapshot(reference, options.components);
  DSWM_RETURN_NOT_OK(pca.status());
  if (pca.value().components() == 0) {
    return Status::FailedPrecondition("reference snapshot has rank 0");
  }
  ChangeDetector detector;
  detector.options_ = options;
  detector.reference_ = std::move(pca).value();
  detector.reference_version_ = reference.meta().version;
  return detector;
}

StatusOr<double> ChangeDetector::Update(const serve::Snapshot& current) {
  auto pca = ApproxPca::FromSnapshot(current, options_.components);
  DSWM_RETURN_NOT_OK(pca.status());
  const double distance = 1.0 - reference_.Affinity(pca.value());
  last_distance_ = distance;

  if (!calibrated_) {
    baseline_accum_ += distance;
    if (++calibration_seen_ >= options_.calibration_updates) {
      baseline_ = baseline_accum_ / calibration_seen_;
      calibrated_ = true;
    }
    return distance;
  }
  if (distance > options_.threshold_multiplier * baseline_ +
                     options_.threshold_offset) {
    change_detected_ = true;
  }
  return distance;
}

void ChangeDetector::Reset() {
  calibrated_ = false;
  calibration_seen_ = 0;
  baseline_accum_ = 0.0;
  baseline_ = 0.0;
  last_distance_ = 0.0;
  change_detected_ = false;
}

}  // namespace dswm

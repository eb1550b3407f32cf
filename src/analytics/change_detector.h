// PCA-based change detection over published snapshots
// (paper Section I application 1; cf. Qahtan et al. [24]).
//
// A reference PCA basis is frozen from a published snapshot; afterwards,
// each Update() compares the current version's basis to it and raises a
// change when the subspace distance (1 - mean squared principal cosine)
// exceeds an adaptive threshold calibrated from the quiet period. The
// detector deep-copies the reference basis, so it remains valid after the
// reference snapshot is freed.

#ifndef DSWM_ANALYTICS_CHANGE_DETECTOR_H_
#define DSWM_ANALYTICS_CHANGE_DETECTOR_H_

#include <cstdint>

#include "analytics/approx_pca.h"
#include "common/status.h"

namespace dswm {

/// Options for ChangeDetector.
struct ChangeDetectorOptions {
  /// PCA components to monitor.
  int components = 8;
  /// Updates used to calibrate the quiet-period baseline before any
  /// change can be raised.
  int calibration_updates = 5;
  /// Raise when distance > multiplier * baseline + offset.
  double threshold_multiplier = 3.0;
  double threshold_offset = 0.05;
};

/// Streaming change detector over published covariance snapshots.
class ChangeDetector {
 public:
  /// Creates a detector with a frozen reference basis extracted from the
  /// snapshot (typically the version published at the end of the
  /// reference window).
  static StatusOr<ChangeDetector> FromSnapshot(
      const serve::Snapshot& reference, const ChangeDetectorOptions& options);

  /// Feeds the current testing-window snapshot; returns the subspace
  /// distance in [0, 1] and updates the change flag.
  StatusOr<double> Update(const serve::Snapshot& current);

  /// True once a change has been raised (sticky until Reset()).
  bool change_detected() const { return change_detected_; }

  /// Distance from the most recent Update().
  double last_distance() const { return last_distance_; }

  /// Baseline distance learned during calibration (0 until calibrated).
  double baseline() const { return calibrated_ ? baseline_ : 0.0; }

  /// Version of the snapshot the reference basis was frozen from.
  uint64_t reference_version() const { return reference_version_; }

  /// Clears the change flag and re-enters calibration (keeps the
  /// reference basis).
  void Reset();

 private:
  ChangeDetector() = default;

  ChangeDetectorOptions options_;
  ApproxPca reference_;
  uint64_t reference_version_ = 0;
  bool calibrated_ = false;
  int calibration_seen_ = 0;
  double baseline_accum_ = 0.0;
  double baseline_ = 0.0;
  double last_distance_ = 0.0;
  bool change_detected_ = false;
};

}  // namespace dswm

#endif  // DSWM_ANALYTICS_CHANGE_DETECTOR_H_

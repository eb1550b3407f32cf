#include "serve/query_service.h"

#include <string>
#include <utility>

#include "obs/metrics.h"

namespace dswm {
namespace serve {

namespace {

Status DimMismatch(int got, int want) {
  return Status::InvalidArgument("query dimension " + std::to_string(got) +
                                 " does not match snapshot dimension " +
                                 std::to_string(want));
}

}  // namespace

StatusOr<const Snapshot*> QueryService::Session::Current() {
  // Compare versions before touching the store's mutex: between publishes
  // a query reads through the held ref without any shared write.
  if (held_ == nullptr || held_->meta().version != store_->latest_version()) {
    held_ = store_->Latest();
    if (held_ == nullptr) {
      return Status::FailedPrecondition("no snapshot published yet");
    }
  }
  return held_.get();
}

StatusOr<PcaResult> QueryService::Session::Pca(const double* x, int dim) {
  auto current = Current();
  DSWM_RETURN_NOT_OK(current.status());
  const Snapshot& snapshot = *current.value();
  if (dim != snapshot.dim()) return DimMismatch(dim, snapshot.dim());

  const ApproxPca& pca = snapshot.pca();
  PcaResult result;
  result.meta = snapshot.meta();
  result.components = pca.components();
  result.captured_fraction = pca.captured_fraction();
  result.explained_variance = pca.explained_variance();
  result.coefficients = pca.Project(x);
  result.reconstruction_error = pca.ReconstructionError(x);
  DSWM_OBS_COUNT("serve.query.pca", 1);
  return result;
}

StatusOr<AnomalyResult> QueryService::Session::Anomaly(const double* x,
                                                       int dim) {
  auto current = Current();
  DSWM_RETURN_NOT_OK(current.status());
  const Snapshot& snapshot = *current.value();
  if (dim != snapshot.dim()) return DimMismatch(dim, snapshot.dim());

  AnomalyResult result;
  result.meta = snapshot.meta();
  result.score = snapshot.scorer().Score(x);
  result.lambda = snapshot.scorer().lambda();
  DSWM_OBS_COUNT("serve.query.anomaly", 1);
  return result;
}

StatusOr<ChangeResult> QueryService::Session::Change() {
  auto current = Current();
  DSWM_RETURN_NOT_OK(current.status());
  const Snapshot& snapshot = *current.value();

  if (!detector_.has_value()) {
    auto detector = ChangeDetector::FromSnapshot(snapshot, change_options_);
    DSWM_RETURN_NOT_OK(detector.status());
    detector_ = std::move(detector).value();
    change_evaluated_version_ = snapshot.meta().version;
    last_change_.meta = snapshot.meta();
    last_change_.reference_version = detector_->reference_version();
    last_change_.distance = 0.0;
    last_change_.baseline = detector_->baseline();
    last_change_.change_detected = detector_->change_detected();
    DSWM_OBS_COUNT("serve.query.change", 1);
    return last_change_;
  }

  if (snapshot.meta().version > change_evaluated_version_) {
    auto distance = detector_->Update(snapshot);
    DSWM_RETURN_NOT_OK(distance.status());
    change_evaluated_version_ = snapshot.meta().version;
    last_change_.meta = snapshot.meta();
    last_change_.reference_version = detector_->reference_version();
    last_change_.distance = distance.value();
    last_change_.baseline = detector_->baseline();
    last_change_.change_detected = detector_->change_detected();
  }
  DSWM_OBS_COUNT("serve.query.change", 1);
  return last_change_;
}

}  // namespace serve
}  // namespace dswm

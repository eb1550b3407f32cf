#include "serve/snapshot_store.h"

#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace dswm {
namespace serve {

SnapshotStore::SnapshotStore(Options options) : options_(std::move(options)) {
  DSWM_CHECK_GE(options_.pca_components, 1);
  DSWM_CHECK_GT(options_.lambda_fraction, 0.0);
}

Status SnapshotStore::Publish(CovarianceEstimate estimate,
                              Timestamp published_at, Timestamp window) {
  MutexLock lock(mu_);
  SnapshotMeta meta;
  meta.version = latest_version() + 1;
  meta.published_at = published_at;
  meta.window = window;
  meta.window_start = published_at - window + 1;
  auto built = Snapshot::Build(std::move(estimate), meta,
                               options_.pca_components,
                               options_.lambda_fraction);
  DSWM_RETURN_NOT_OK(built.status());

  latest_ = std::move(built).value();
  latest_version_.store(meta.version, std::memory_order_release);
  DSWM_OBS_COUNT("serve.store.published", 1);
  if (options_.on_publish) options_.on_publish(*latest_);
  return Status::OK();
}

SnapshotRef SnapshotStore::Latest() const {
  MutexLock lock(mu_);
  return latest_;
}

}  // namespace serve
}  // namespace dswm

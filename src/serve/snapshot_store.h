// Versioned snapshot store -- the publish/read seam of the serving tier.
//
// The store keeps the latest immutable Snapshot behind a mutex-guarded
// std::shared_ptr. Publication (rare, serialized by the mutex) builds the
// fully-materialized snapshot and swaps it in; Latest() copies the pointer
// under the same mutex. A version is freed when the store and its last
// holder have both dropped it, so a reader keeps whatever version it holds
// alive for as long as it needs, and refs may outlive the store.
//
// Readers that query often should not copy the pointer on every read (the
// mutex and the shared refcount contend across threads): keep the ref and
// fetch a new one only when latest_version() -- one atomic load -- moves,
// as QueryService::Session does.

#ifndef DSWM_SERVE_SNAPSHOT_STORE_H_
#define DSWM_SERVE_SNAPSHOT_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/mutex.h"
#include "common/status.h"
#include "core/covariance_estimate.h"
#include "serve/snapshot.h"

namespace dswm {
namespace serve {

/// A held version: the snapshot (and everything memoized on it) stays
/// alive while any ref to it does.
using SnapshotRef = std::shared_ptr<const Snapshot>;

/// Store construction knobs.
struct StoreOptions {
  /// PCA components memoized per version (Snapshot::pca()).
  int pca_components = 8;
  /// Ridge fraction of the memoized anomaly scorer.
  double lambda_fraction = 0.01;
  /// Test hook: called under the publication lock after each version is
  /// swapped in. Used by the bit-identity suite to record per-version
  /// bytes; leave empty in production paths.
  std::function<void(const Snapshot&)> on_publish;
};

/// The store. Publishers and Latest() serialize on an internal mutex;
/// latest_version() is lock-free.
class SnapshotStore {
 public:
  using Options = StoreOptions;

  explicit SnapshotStore(Options options = Options());
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Publishes `estimate` as the next version: materializes every view
  /// (gram, eigenbasis, PSD root -- each exactly once), memoizes the PCA
  /// basis and default scorer, and swaps the version in. InvalidArgument
  /// on an empty estimate; propagates construction failures without
  /// changing the published version. `published_at` stamps the triggering
  /// row's timestamp; `window` the coverage length.
  Status Publish(CovarianceEstimate estimate, Timestamp published_at,
                 Timestamp window) DSWM_EXCLUDES(mu_);

  /// The latest published version; null before the first Publish.
  [[nodiscard]] SnapshotRef Latest() const DSWM_EXCLUDES(mu_);

  /// Version of the latest published snapshot (0 before the first
  /// Publish). One acquire load; safe from any thread.
  [[nodiscard]] uint64_t latest_version() const {
    return latest_version_.load(std::memory_order_acquire);
  }

 private:
  Options options_;
  mutable Mutex mu_;
  SnapshotRef latest_ DSWM_GUARDED_BY(mu_);
  /// Written only under mu_, after latest_ is swapped.
  std::atomic<uint64_t> latest_version_{0};
};

}  // namespace serve
}  // namespace dswm

#endif  // DSWM_SERVE_SNAPSHOT_STORE_H_

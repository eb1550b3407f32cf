// The unified query API of the serving tier.
//
// A QueryService fronts one SnapshotStore with typed, versioned results:
// every answer carries the SnapshotMeta of the exact version that produced
// it, so high-QPS readers can reason about staleness and reproducibility.
// Callers obtain a Session per thread. A session holds the version that
// answered its last query and fetches a new one from the store only when
// the store's version number has moved, so between publishes a query
// finds its snapshot with one atomic load; the store's mutex is taken
// once per session per version.
//
//   QueryService service(&store);
//   QueryService::Session session = service.NewSession();   // per thread
//   auto pca = session.Pca(x, d);        // StatusOr<PcaResult>
//   auto anomaly = session.Anomaly(x, d);
//   auto change = session.Change();      // seeds its reference lazily
//
// Error contract: FailedPrecondition before the first publish,
// InvalidArgument on a dimension mismatch. Queries never mutate snapshot
// state (the estimate is sealed), so results are bit-identical regardless
// of metrics or reader count.

#ifndef DSWM_SERVE_QUERY_SERVICE_H_
#define DSWM_SERVE_QUERY_SERVICE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "analytics/change_detector.h"
#include "common/status.h"
#include "serve/snapshot_store.h"

namespace dswm {
namespace serve {

/// Projection of a point onto the served PCA basis.
struct PcaResult {
  SnapshotMeta meta;
  int components = 0;
  double captured_fraction = 0.0;
  std::vector<double> explained_variance;
  std::vector<double> coefficients;
  double reconstruction_error = 0.0;
};

/// Ridge-leverage anomaly score of a point.
struct AnomalyResult {
  SnapshotMeta meta;
  double score = 0.0;
  double lambda = 0.0;
};

/// Subspace-change verdict of the current version against the session's
/// frozen reference version.
struct ChangeResult {
  SnapshotMeta meta;
  uint64_t reference_version = 0;
  double distance = 0.0;
  double baseline = 0.0;
  bool change_detected = false;
};

class QueryService {
 public:
  /// Borrows `store` (must outlive the service and every session).
  /// `change_options` configures each session's change detector.
  explicit QueryService(SnapshotStore* store,
                        ChangeDetectorOptions change_options = {})
      : store_(store), change_options_(change_options) {}

  /// One reader's handle; create one per querying thread. An idle
  /// session keeps at most one old version alive, until its next query or
  /// its destruction.
  class Session {
   public:
    /// Projects x (length `dim`) onto the latest version's PCA basis.
    [[nodiscard]] StatusOr<PcaResult> Pca(const double* x, int dim);

    /// Scores x against the latest version's memoized anomaly scorer.
    [[nodiscard]] StatusOr<AnomalyResult> Anomaly(const double* x, int dim);

    /// Compares the latest version's subspace against this session's
    /// reference basis. The first call freezes the reference from the
    /// then-latest version (distance 0 by construction); later calls
    /// evaluate only when the version advanced, otherwise the previous
    /// verdict is returned unchanged.
    [[nodiscard]] StatusOr<ChangeResult> Change();

    /// Version answering the most recent query (0 if none).
    [[nodiscard]] uint64_t last_version() const {
      return held_ == nullptr ? 0 : held_->meta().version;
    }

   private:
    friend class QueryService;
    Session(SnapshotStore* store, const ChangeDetectorOptions& options)
        : store_(store), change_options_(options) {}

    /// The latest version, held in held_ and re-fetched only when the
    /// store's version moved. FailedPrecondition before the first publish.
    [[nodiscard]] StatusOr<const Snapshot*> Current();

    SnapshotStore* store_;
    SnapshotRef held_;
    ChangeDetectorOptions change_options_;
    std::optional<ChangeDetector> detector_;
    uint64_t change_evaluated_version_ = 0;
    ChangeResult last_change_;
  };

  [[nodiscard]] Session NewSession() {
    return Session(store_, change_options_);
  }

  /// Forwards SnapshotStore::latest_version().
  [[nodiscard]] uint64_t latest_version() const {
    return store_->latest_version();
  }

 private:
  SnapshotStore* store_;
  ChangeDetectorOptions change_options_;
};

}  // namespace serve
}  // namespace dswm

#endif  // DSWM_SERVE_QUERY_SERVICE_H_

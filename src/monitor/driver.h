// Experiment driver: feeds a materialized dataset through a tracker,
// measures covariance error at random query points against the exact
// window, and reports the paper's metrics (Section IV-A):
//   msg       -- average words sent per window,
//   avg_err / max_err -- covariance error over the query points,
//   space     -- maximum per-site space (words) over the query points,
//   update rate -- tracker-only rows per second of wall-clock.

#ifndef DSWM_MONITOR_DRIVER_H_
#define DSWM_MONITOR_DRIVER_H_

#include <vector>

#include "common/status.h"
#include "core/tracker.h"
#include "obs/metrics.h"
#include "stream/timed_row.h"

namespace dswm {

namespace serve {
class SnapshotStore;
}  // namespace serve

/// Driver options.
struct DriverOptions {
  /// Number of random query timestamps (the paper uses 50).
  int query_points = 50;
  /// Query points are drawn from row indices >= warmup_fraction * n so
  /// measurements happen in steady state (after the first window fills).
  double warmup_fraction = 0.25;
  /// Seed for site assignment and query-point selection.
  uint64_t seed = 1234;
  /// When non-null, the tracker's estimate is published into this store at
  /// every window-advance boundary (the first row of each window period)
  /// plus once at the end of the run. Publication points depend only on
  /// row timestamps and the window length, so the published snapshot bytes
  /// are identical under any reader count.
  serve::SnapshotStore* publish_store = nullptr;

  /// InvalidArgument unless query_points >= 0 and warmup_fraction is in
  /// [0, 1]. Checked by RunTracker; CLIs should call it up front to report
  /// flag errors before constructing trackers.
  [[nodiscard]] Status Validate() const;
};

/// One query-point measurement (chronological).
struct TraceEntry {
  Timestamp timestamp = 0;
  double err = 0.0;
  long words_so_far = 0;
  long site_space_words = 0;
};

/// Aggregated result of one run.
struct RunResult {
  /// Per-query-point series, chronological (size <= options.query_points).
  std::vector<TraceEntry> trace;
  double avg_err = 0.0;
  double max_err = 0.0;
  double words_per_window = 0.0;  // msg
  long total_words = 0;
  long messages = 0;
  long broadcasts = 0;
  long rows_sent = 0;
  long max_site_space_words = 0;
  double update_rows_per_sec = 0.0;
  double windows_spanned = 0.0;
  int rows = 0;
  /// Serialized bytes across the tracker's channels. Payload bytes are
  /// exactly 8 * total_words (the ledger cross-validation invariant);
  /// frame bytes add headers and sparse-support metadata.
  long wire_payload_bytes = 0;
  long wire_frame_bytes = 0;
  /// Transmissions recorded across the tracker's channels (>= messages:
  /// drops, duplicates, and retransmissions each record an entry).
  long wire_transmissions = 0;
  /// FNV-1a (over 64-bit words) of what the tracker produced: at each
  /// query point the row's timestamp, the estimate's native form and its
  /// matrix (shape and bytes), MaxSiteSpaceWords() and
  /// Comm().TotalWords(); then every ledger entry of every channel, all
  /// fields, in order. Errors, wall time and metrics are not folded, so
  /// the digest is the same with metrics on or off and at any thread
  /// count (DESIGN.md section 8). 0 for an empty stream.
  uint64_t digest = 0;
  /// Observability snapshot scoped to this run (empty unless metrics are
  /// enabled, obs::SetEnabled(true)): per-phase spans, subsystem counters,
  /// and ledger-derived comm/space gauges in one document.
  obs::MetricsSnapshot metrics;
};

/// Runs `tracker` over `rows` (time-ordered), assigning each row to a
/// uniformly random site in [0, num_sites). `window` must equal the
/// tracker's configured window.
///
/// This is the one execution model (DESIGN.md section 12): rows are fed in
/// stream order on the calling thread, and every transport delivery
/// completes inside the Send that caused it, or, for delayed frames, inside
/// the Observe/AdvanceTime that reaches its due tick.
///
/// Inputs are validated up front -- null tracker, num_sites < 1,
/// window < 1, invalid options, rows out of time order, or a row whose
/// dimension differs from tracker->Dim() all return InvalidArgument
/// without feeding the tracker.
///
/// When the global ThreadPool has more than one thread (DSWM_THREADS), the
/// query-point error evaluations run in parallel as one batch after the
/// replay, on snapshots of the exact and approximate state. Results are
/// folded in query order, so every reported metric is identical to the
/// single-threaded run; only wall-clock changes.
[[nodiscard]] StatusOr<RunResult> RunTracker(DistributedTracker* tracker,
                                             const std::vector<TimedRow>& rows,
                                             int num_sites, Timestamp window,
                                             const DriverOptions& options);

}  // namespace dswm

#endif  // DSWM_MONITOR_DRIVER_H_

// Closed-loop serving load generator: a live tracker feeding a
// SnapshotStore while reader threads drive mixed PCA / anomaly / change
// queries through QueryService sessions.
//
// One ThreadPool task replays a synthetic stream through the tracker
// (publishing at every window boundary via DriverOptions::publish_store);
// N reader tasks each own a Session and issue queries back to back --
// closed loop, no think time -- until the feed ends and their minimum
// query count is met. Latency is recorded per query through an
// external-accumulator obs::Span (measured even with metrics off) and,
// when metrics are enabled, into the serve.query.latency_us histogram.
//
// Used by bench/bench_query_serving.cc and `dswm_cli serve-bench`.

#ifndef DSWM_SERVE_LOAD_GEN_H_
#define DSWM_SERVE_LOAD_GEN_H_

#include <cstdint>

#include "common/status.h"
#include "core/tracker_factory.h"
#include "monitor/driver.h"
#include "obs/metrics.h"

namespace dswm {
namespace serve {

struct LoadGenOptions {
  Algorithm algorithm = Algorithm::kDa2;
  int rows = 6000;
  int dim = 32;
  int sites = 4;
  double epsilon = 0.2;
  /// 0 = a quarter of the stream's time span.
  Timestamp window = 0;
  uint64_t seed = 5;
  /// Concurrent closed-loop reader threads.
  int reader_threads = 4;
  /// Each reader keeps querying (against the final version) until it has
  /// issued at least this many queries, so short feeds still produce a
  /// meaningful sample.
  long min_queries_per_reader = 200;

  [[nodiscard]] Status Validate() const;
};

struct LoadGenReport {
  /// Query counts across all readers (total = pca + anomaly + change).
  long total_queries = 0;
  long pca_queries = 0;
  long anomaly_queries = 0;
  long change_queries = 0;
  /// Queries that returned a non-OK Status (the acceptance bar is zero).
  long errors = 0;
  /// Wall-clock of the whole loaded phase (feed + concurrent readers).
  double elapsed_seconds = 0.0;
  /// total_queries / elapsed_seconds.
  double qps = 0.0;
  /// Versions the feeder published.
  uint64_t versions_published = 0;
  /// Tracker-side result of the feed (errors, comm, trace).
  RunResult run;
  /// Registry delta over the loaded phase (empty when metrics are off);
  /// contains the serve.query.latency_us histogram and serve.* counters.
  obs::MetricsSnapshot metrics;
};

/// Runs the load. Fails on invalid options or a tracker/feed failure;
/// per-query Status errors are counted in the report, not returned.
[[nodiscard]] StatusOr<LoadGenReport> RunServingLoad(
    const LoadGenOptions& options);

/// Determinism self-check for the serving path: replays the identical
/// deterministic feed twice -- metrics off, then on -- and compares every
/// query result of a fixed single-threaded query set bitwise. Internal
/// error on any divergence (metrics must never change a query result).
[[nodiscard]] Status VerifyMetricsInvariance(const LoadGenOptions& options);

}  // namespace serve
}  // namespace dswm

#endif  // DSWM_SERVE_LOAD_GEN_H_

// RunTracker (monitor/driver.h): the lockstep replay of a materialized
// stream through one tracker. It runs five steps in order:
//
//   validate -- reject bad inputs before the tracker sees a row;
//   plan     -- draw the query points, then one site per row, from the
//               seeded RNG (this draw order is what every seeded
//               experiment reproduces);
//   step     -- feed each row in stream order: Observe at its planned
//               site, exact-window upkeep, publication at window
//               boundaries, and a state snapshot at query points;
//   evaluate -- score every query-point snapshot in one batch;
//   assemble -- fold errors, ledgers and wire accounting into RunResult.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/batched.h"
#include "monitor/driver.h"
#include "net/channel.h"
#include "obs/span.h"
#include "serve/snapshot_store.h"
#include "sketch/covariance.h"
#include "window/exact_window.h"

namespace dswm {

namespace {

struct EvalJob {
  Matrix cov;
  double fnorm2;
  CovarianceEstimate estimate;
};

double EvalError(const Matrix& cov_exact, const CovarianceEstimate& estimate,
                 double fnorm2) {
  // Dispatch on the native form so evaluation never pays a lazy
  // conversion (PsdSqrt / GramTranspose) inside the measurement loop.
  return estimate.NativeIsRows()
             ? CovarianceErrorOfSketch(cov_exact, estimate.Rows(), fnorm2)
             : CovarianceErrorOfCovariance(cov_exact, estimate.Covariance(),
                                           fnorm2);
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open trace file: " + path);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return Status::IoError("short write to trace file: " + path);
  }
  return Status::OK();
}

Status ValidateRun(const DistributedTracker* tracker,
                   const std::vector<TimedRow>& rows, int num_sites,
                   Timestamp window, const DriverOptions& options) {
  if (tracker == nullptr) {
    return Status::InvalidArgument("RunTracker: tracker is null");
  }
  if (num_sites < 1) {
    return Status::InvalidArgument("RunTracker: num_sites must be >= 1, got " +
                                   std::to_string(num_sites));
  }
  if (window < 1) {
    return Status::InvalidArgument("RunTracker: window must be >= 1, got " +
                                   std::to_string(window));
  }
  DSWM_RETURN_NOT_OK(options.Validate());
  const int d = tracker->Dim();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (static_cast<int>(rows[i].values.size()) != d) {
      return Status::InvalidArgument(
          "RunTracker: row " + std::to_string(i) + " has dimension " +
          std::to_string(rows[i].values.size()) + ", tracker expects " +
          std::to_string(d));
    }
    if (i > 0 && rows[i].timestamp < rows[i - 1].timestamp) {
      return Status::InvalidArgument(
          "RunTracker: rows out of time order at index " + std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<RunResult> RunTracker(DistributedTracker* tracker,
                               const std::vector<TimedRow>& rows,
                               int num_sites, Timestamp window,
                               const DriverOptions& options) {
  DSWM_RETURN_NOT_OK(ValidateRun(tracker, rows, num_sites, window, options));

  RunResult result;
  const int n = static_cast<int>(rows.size());
  result.rows = n;
  if (n == 0) return result;

  const bool metrics_on = obs::Enabled();
  const obs::MetricsSnapshot metrics_base =
      metrics_on ? obs::Registry().Snapshot() : obs::MetricsSnapshot();

  // Plan. Draw order (bit-compatibility with every seeded experiment):
  // all query points first, then one site draw per row.
  Rng rng(options.seed);
  const int first =
      std::min(n - 1, static_cast<int>(options.warmup_fraction * n));
  std::vector<bool> is_query(static_cast<size_t>(n), false);
  for (int q = 0; q < options.query_points; ++q) {
    is_query[static_cast<size_t>(
        first + static_cast<int>(rng.NextBelow(n - first)))] = true;
  }
  std::vector<int> sites(static_cast<size_t>(n));
  for (int& site : sites) site = static_cast<int>(rng.NextBelow(num_sites));

  // Step. Query-point error evaluations are independent of the replay
  // (each acts on a snapshot of exact + approximate state), so the loop
  // only collects the snapshots and nothing is in flight if a step fails.
  ExactWindow exact(tracker->Dim(), window);
  std::vector<EvalJob> jobs;
  double tracker_seconds = 0.0;
  long published_window = -1;
  const auto publish = [&](Timestamp at) -> Status {
    obs::Span span("driver.publish");
    return options.publish_store->Publish(tracker->Query(), at, window);
  };
  for (int i = 0; i < n; ++i) {
    const TimedRow& row = rows[static_cast<size_t>(i)];
    {
      obs::Span span("driver.observe", &tracker_seconds);
      DSWM_RETURN_NOT_OK(tracker->Observe(sites[static_cast<size_t>(i)], row));
    }

    exact.Add(row);
    exact.Advance(row.timestamp);

    if (options.publish_store != nullptr) {
      // Publish at window-advance boundaries: the first row landing in
      // each window period triggers a version. The trigger depends only on
      // the row timestamps and the window length -- never on the channel
      // backend or any reader -- so the published bytes are deterministic.
      const long window_index = static_cast<long>(row.timestamp / window);
      if (window_index > published_window) {
        published_window = window_index;
        DSWM_RETURN_NOT_OK(publish(row.timestamp));
      }
    }

    if (is_query[static_cast<size_t>(i)]) {
      obs::Span span("driver.query");
      CovarianceEstimate estimate = tracker->Query();
      const long site_space = tracker->MaxSiteSpaceWords();
      result.max_site_space_words =
          std::max(result.max_site_space_words, site_space);
      result.trace.push_back(TraceEntry{row.timestamp, 0.0,
                                        tracker->Comm().TotalWords(),
                                        site_space});
      jobs.push_back(EvalJob{exact.Covariance(), exact.FrobeniusSquared(),
                             std::move(estimate)});
    }
  }

  // Final publication: the last window's tail (rows after its boundary
  // publish) becomes queryable as the terminal version.
  if (options.publish_store != nullptr) {
    DSWM_RETURN_NOT_OK(publish(rows.back().timestamp));
  }

  // Evaluate. The whole fan-out runs as one batch through the batched
  // engine. Slot q belongs to query q and results fold in query order, so
  // avg/max/trace are identical at any thread count.
  std::vector<double> errs(jobs.size());
  {
    obs::Span span("driver.eval");
    BatchedDispatch(static_cast<int>(jobs.size()), [&jobs, &errs](int q) {
      const EvalJob& job = jobs[static_cast<size_t>(q)];
      errs[static_cast<size_t>(q)] =
          EvalError(job.cov, job.estimate, job.fnorm2);
    });
  }
  jobs.clear();

  // Assemble.
  double err_sum = 0.0;
  for (size_t q = 0; q < errs.size(); ++q) {
    result.trace[q].err = errs[q];
    err_sum += errs[q];
    result.max_err = std::max(result.max_err, errs[q]);
  }
  result.avg_err =
      errs.empty() ? 0.0 : err_sum / static_cast<double>(errs.size());

  const CommStats& comm = tracker->Comm();
  result.total_words = comm.TotalWords();
  result.messages = comm.messages;
  result.broadcasts = comm.broadcasts;
  result.rows_sent = comm.rows_sent;

  // Wire-level accounting and (optionally) the merged transmission trace,
  // aggregated over every channel the tracker owns.
  std::string trace_text;
  for (net::Channel* c : tracker->Channels()) {
    result.wire_payload_bytes += c->ledger().TotalPayloadBytes();
    result.wire_frame_bytes += c->ledger().TotalFrameBytes();
    result.wire_transmissions +=
        static_cast<long>(c->ledger().entries().size());
    if (!options.trace_jsonl.empty()) c->ledger().AppendJsonl(&trace_text);
  }
  if (!options.trace_jsonl.empty()) {
    result.trace_status = WriteTextFile(options.trace_jsonl, trace_text);
  }

  const Timestamp span = rows.back().timestamp - rows.front().timestamp + 1;
  result.windows_spanned =
      static_cast<double>(span) / static_cast<double>(window);
  result.words_per_window =
      result.windows_spanned > 0
          ? static_cast<double>(result.total_words) / result.windows_spanned
          : static_cast<double>(result.total_words);
  result.update_rows_per_sec =
      tracker_seconds > 0 ? n / tracker_seconds : 0.0;

  if (metrics_on) {
    // Export the ledger-derived comm/space totals as gauges so one
    // snapshot covers comm + compute + space, then scope the cumulative
    // registry to this run.
    obs::MetricRegistry& reg = obs::Registry();
    reg.GetGauge("comm.total_words")->Set(result.total_words);
    reg.GetGauge("comm.messages")->Set(result.messages);
    reg.GetGauge("comm.broadcasts")->Set(result.broadcasts);
    reg.GetGauge("comm.rows_sent")->Set(result.rows_sent);
    reg.GetGauge("comm.wire_payload_bytes")->Set(result.wire_payload_bytes);
    reg.GetGauge("comm.wire_frame_bytes")->Set(result.wire_frame_bytes);
    reg.GetGauge("comm.wire_transmissions")->Set(result.wire_transmissions);
    reg.GetGauge("space.max_site_words")->Set(result.max_site_space_words);
    result.metrics = reg.Snapshot().DeltaSince(metrics_base);
  }
  return result;
}

}  // namespace dswm

#include "serve/load_gen.h"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "monitor/driver.h"
#include "obs/span.h"
#include "serve/query_service.h"
#include "serve/snapshot_store.h"
#include "stream/synthetic.h"

namespace dswm {
namespace serve {

namespace {

// Microsecond latency edges: sub-microsecond reads up to slow outliers.
const std::vector<long>& LatencyEdgesUs() {
  static const std::vector<long> edges{1,   2,   5,    10,   20,   50,  100,
                                       200, 500, 1000, 2000, 5000, 10000};
  return edges;
}

std::vector<TimedRow> MakeStream(const LoadGenOptions& options) {
  SyntheticConfig config;
  config.rows = options.rows;
  config.dim = options.dim;
  config.seed = options.seed;
  SyntheticGenerator gen(config);
  return Materialize(&gen, config.rows);
}

Timestamp WindowOf(const LoadGenOptions& options,
                   const std::vector<TimedRow>& rows) {
  if (options.window > 0) return options.window;
  const Timestamp span = rows.back().timestamp - rows.front().timestamp + 1;
  return std::max<Timestamp>(span / 4, 1);
}

}  // namespace

Status LoadGenOptions::Validate() const {
  if (rows < 1) return Status::InvalidArgument("rows must be >= 1");
  if (dim < 1) return Status::InvalidArgument("dim must be >= 1");
  if (sites < 1) return Status::InvalidArgument("sites must be >= 1");
  if (epsilon <= 0.0) return Status::InvalidArgument("epsilon must be > 0");
  if (window < 0) return Status::InvalidArgument("window must be >= 0");
  if (reader_threads < 1) {
    return Status::InvalidArgument("reader_threads must be >= 1");
  }
  if (min_queries_per_reader < 0) {
    return Status::InvalidArgument("min_queries_per_reader must be >= 0");
  }
  return Status::OK();
}

StatusOr<LoadGenReport> RunServingLoad(const LoadGenOptions& options) {
  DSWM_RETURN_NOT_OK(options.Validate());
  const std::vector<TimedRow> rows = MakeStream(options);
  if (rows.empty()) return Status::Internal("synthetic stream is empty");
  const Timestamp window = WindowOf(options, rows);

  TrackerConfig config;
  config.dim = options.dim;
  config.num_sites = options.sites;
  config.window = window;
  config.epsilon = options.epsilon;
  config.seed = options.seed;
  auto tracker = MakeTracker(options.algorithm, config);
  DSWM_RETURN_NOT_OK(tracker.status());

  // The first-publish gate: readers block on a condvar until the feeder
  // publishes version 1 (or fails), then run a pure closed loop.
  Mutex gate_mu;
  CondVar gate_cv;
  bool first_published = false;  // guarded by gate_mu
  bool feed_done = false;        // guarded by gate_mu

  SnapshotStore::Options store_options;
  store_options.on_publish = [&](const Snapshot&) {
    MutexLock lock(gate_mu);
    if (!first_published) {
      first_published = true;
      gate_cv.NotifyAll();
    }
  };
  SnapshotStore store(store_options);
  QueryService service(&store);

  const bool metrics_on = obs::Enabled();
  obs::MetricsSnapshot metrics_base;
  if (metrics_on) metrics_base = obs::Registry().Snapshot();

  struct ReaderStats {
    long pca = 0;
    long anomaly = 0;
    long change = 0;
    long errors = 0;
  };
  std::vector<ReaderStats> stats(static_cast<size_t>(options.reader_threads));
  StatusOr<RunResult> feed = Status::Internal("feed not run");

  double elapsed_seconds = 0.0;
  {
    obs::Span timer("serve.load", &elapsed_seconds);
    // One pool sized so the feeder and every reader run concurrently
    // (the caller's thread just waits in WaitIdle).
    ThreadPool pool(options.reader_threads + 2);

    pool.Submit([&] {
      DriverOptions driver_options;
      driver_options.query_points = 0;
      driver_options.seed = options.seed;
      driver_options.publish_store = &store;
      feed = RunTracker(tracker.value().get(), rows, options.sites, window,
                        driver_options);
      MutexLock lock(gate_mu);
      feed_done = true;
      gate_cv.NotifyAll();
    });

    for (int r = 0; r < options.reader_threads; ++r) {
      pool.Submit([&, r] {
        {
          MutexLock lock(gate_mu);
          gate_cv.Wait(gate_mu, [&]() DSWM_REQUIRES(gate_mu) {
            return first_published || feed_done;
          });
        }
        if (store.latest_version() == 0) return;  // feed failed/empty
        QueryService::Session session = service.NewSession();
        ReaderStats& mine = stats[static_cast<size_t>(r)];
        long q = 0;
        bool feeding = true;
        while (feeding || q < options.min_queries_per_reader) {
          if (feeding) {
            MutexLock lock(gate_mu);
            feeding = !feed_done;
          }
          // Per-reader stride keeps readers from marching in lockstep
          // over the same query points.
          const TimedRow& point =
              rows[static_cast<size_t>((q * 7 + r * 31) %
                                       static_cast<long>(rows.size()))];
          double seconds = 0.0;
          Status status = Status::OK();
          {
            obs::Span span("serve.query", &seconds);
            switch (q % 3) {
              case 0: {
                auto got = session.Pca(point.values.data(), options.dim);
                status = got.status();
                if (status.ok()) ++mine.pca;
                break;
              }
              case 1: {
                auto got = session.Anomaly(point.values.data(), options.dim);
                status = got.status();
                if (status.ok()) ++mine.anomaly;
                break;
              }
              default: {
                auto got = session.Change();
                status = got.status();
                if (status.ok()) ++mine.change;
                break;
              }
            }
          }
          if (!status.ok()) ++mine.errors;
          DSWM_OBS_HISTOGRAM("serve.query.latency_us", LatencyEdgesUs(),
                             static_cast<long>(seconds * 1e6));
          ++q;
        }
      });
    }
    pool.WaitIdle();
  }

  DSWM_RETURN_NOT_OK(feed.status());

  LoadGenReport report;
  for (const ReaderStats& s : stats) {
    report.pca_queries += s.pca;
    report.anomaly_queries += s.anomaly;
    report.change_queries += s.change;
    report.errors += s.errors;
  }
  report.total_queries = report.pca_queries + report.anomaly_queries +
                         report.change_queries + report.errors;
  report.elapsed_seconds = elapsed_seconds;
  report.qps = elapsed_seconds > 0.0
                   ? static_cast<double>(report.total_queries) / elapsed_seconds
                   : 0.0;
  report.versions_published = store.latest_version();
  report.run = std::move(feed).value();
  if (metrics_on) {
    report.metrics = obs::Registry().Snapshot().DeltaSince(metrics_base);
  }
  return report;
}

namespace {

/// One deterministic, single-threaded serving pass: feed the stream with
/// publication on, then run a fixed query set through one session,
/// flattening every result into doubles for bitwise comparison.
Status RunDeterministicPass(const LoadGenOptions& options,
                            std::vector<double>* flat) {
  const std::vector<TimedRow> rows = MakeStream(options);
  if (rows.empty()) return Status::Internal("synthetic stream is empty");
  const Timestamp window = WindowOf(options, rows);

  TrackerConfig config;
  config.dim = options.dim;
  config.num_sites = options.sites;
  config.window = window;
  config.epsilon = options.epsilon;
  config.seed = options.seed;
  auto tracker = MakeTracker(options.algorithm, config);
  DSWM_RETURN_NOT_OK(tracker.status());

  SnapshotStore store;
  DriverOptions driver_options;
  driver_options.query_points = 0;
  driver_options.seed = options.seed;
  driver_options.publish_store = &store;
  auto feed = RunTracker(tracker.value().get(), rows, options.sites, window,
                         driver_options);
  DSWM_RETURN_NOT_OK(feed.status());

  QueryService service(&store);
  QueryService::Session session = service.NewSession();
  const int probes = std::min<int>(16, static_cast<int>(rows.size()));
  for (int i = 0; i < probes; ++i) {
    const double* x = rows[static_cast<size_t>(i)].values.data();
    auto pca = session.Pca(x, options.dim);
    DSWM_RETURN_NOT_OK(pca.status());
    flat->push_back(pca.value().reconstruction_error);
    flat->push_back(pca.value().captured_fraction);
    flat->insert(flat->end(), pca.value().coefficients.begin(),
                 pca.value().coefficients.end());
    auto anomaly = session.Anomaly(x, options.dim);
    DSWM_RETURN_NOT_OK(anomaly.status());
    flat->push_back(anomaly.value().score);
    flat->push_back(anomaly.value().lambda);
    auto change = session.Change();
    DSWM_RETURN_NOT_OK(change.status());
    flat->push_back(change.value().distance);
    flat->push_back(static_cast<double>(change.value().meta.version));
  }
  flat->push_back(static_cast<double>(store.latest_version()));
  return Status::OK();
}

}  // namespace

Status VerifyMetricsInvariance(const LoadGenOptions& options) {
  DSWM_RETURN_NOT_OK(options.Validate());
  const bool was_enabled = obs::Enabled();

  obs::SetEnabled(false);
  std::vector<double> without;
  Status off = RunDeterministicPass(options, &without);
  if (!off.ok()) {
    obs::SetEnabled(was_enabled);
    return off;
  }

  obs::SetEnabled(true);
  std::vector<double> with;
  Status on = RunDeterministicPass(options, &with);
  obs::SetEnabled(was_enabled);
  DSWM_RETURN_NOT_OK(on);

  if (without.size() != with.size() ||
      (!without.empty() &&
       std::memcmp(without.data(), with.data(),
                   without.size() * sizeof(double)) != 0)) {
    return Status::Internal(
        "serving query results changed when metrics were enabled");
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace dswm

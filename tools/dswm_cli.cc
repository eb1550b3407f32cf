// dswm command-line tool.
//
//   dswm_cli run --dataset synthetic --algorithm DA2 --epsilon 0.05
//            --sites 20 [--rows N] [--window W] [--seed S]
//            [--queries Q] [--save-sketch out.mat] [--threads T]
//   dswm_cli run --csv data.csv [--timestamp-col 0] --algorithm PWOR ...
//   dswm_cli run ... --trace 1           # per-query-point error series
//   dswm_cli run ... --trace-jsonl t.jsonl   # full message-ledger dump
//   dswm_cli run ... --net-drop 0.01 --net-seed 7 [--net-dup P]
//            [--net-delay D] [--net-reliable 1 --net-retry R]
//   dswm_cli run ... --net-json 1        # wire/ledger metrics as JSON line
//   dswm_cli run ... --metrics-json -    # obs snapshot (spans + counters +
//            comm gauges) as one JSON document to stdout, or to a file path
//   dswm_cli sweep --dataset pamap --algorithms PWOR,DA2
//            --epsilons 0.2,0.1,0.05     # CSV to stdout
//   dswm_cli serve-bench [--algorithm DA2] [--rows N] [--dim D]
//            [--sites M] [--epsilon E] [--window W] [--readers R]
//            [--min-queries Q] [--seed S]   # closed-loop serving load
//   dswm_cli serve-bench --selfcheck 1      # metrics-invariance check only
//   dswm_cli datasets [--rows N]
//   dswm_cli algorithms
//
// Runs one tracking experiment and prints the paper's metrics (avg/max
// covariance error, words per window, per-site space, update rate). Every
// run is the lockstep replay of RunTracker (monitor/driver.h); --net-delay
// frames land inside the tracker calls that reach their due tick.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "core/tracker_factory.h"
#include "linalg/matrix_io.h"
#include "monitor/driver.h"
#include "obs/metrics.h"
#include "serve/load_gen.h"
#include "stream/csv_loader.h"
#include "stream/pamap_like.h"
#include "stream/synthetic.h"
#include "stream/wiki_like.h"

namespace {

using namespace dswm;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open file: " + path);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return Status::IoError("short write to file: " + path);
  }
  return Status::OK();
}

StatusOr<std::vector<TimedRow>> BuildDataset(const std::string& name,
                                             int rows, uint64_t seed) {
  if (name == "synthetic") {
    SyntheticConfig config;
    config.rows = rows > 0 ? rows : 50000;
    config.dim = 64;
    config.seed = seed;
    SyntheticGenerator gen(config);
    return Materialize(&gen, config.rows);
  }
  if (name == "pamap") {
    PamapLikeConfig config;
    config.rows = rows > 0 ? rows : 100000;
    config.seed = seed;
    PamapLikeGenerator gen(config);
    return Materialize(&gen, config.rows);
  }
  if (name == "wiki") {
    WikiLikeConfig config;
    config.rows = rows > 0 ? rows : 20000;
    config.seed = seed;
    WikiLikeGenerator gen(config);
    return Materialize(&gen, config.rows);
  }
  return Status::InvalidArgument("unknown dataset '" + name +
                                 "' (use synthetic|pamap|wiki)");
}

int CmdAlgorithms() {
  std::printf("available algorithms:\n");
  for (Algorithm a : PaperAlgorithms()) std::printf("  %s\n", AlgorithmName(a));
  std::printf("  PWR\n  ESWR\n  CENTRAL\n");
  return 0;
}

int CmdDatasets(const FlagSet& flags) {
  const int rows = static_cast<int>(flags.GetInt("rows", 0));
  std::printf("%-10s %10s %6s %10s %12s\n", "dataset", "rows", "d", "span",
              "ratio R");
  for (const char* name : {"pamap", "synthetic", "wiki"}) {
    auto data = BuildDataset(name, rows, 1);
    if (!data.ok()) return Fail(data.status());
    const Timestamp window =
        std::max<Timestamp>(1, (data.value().back().timestamp -
                                data.value().front().timestamp) /
                                   4);
    const DatasetSummary s = Summarize(data.value(), window);
    std::printf("%-10s %10d %6d %10lld %12.2f\n", name, s.rows, s.dim,
                static_cast<long long>(s.span), s.norm_ratio);
  }
  return 0;
}

int CmdRun(const FlagSet& flags) {
  const std::string algorithm_name = flags.GetString("algorithm", "DA2");
  auto algorithm = ParseAlgorithm(algorithm_name);
  if (!algorithm.ok()) return Fail(algorithm.status());

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  std::vector<TimedRow> rows;
  if (flags.Has("csv")) {
    CsvOptions options;
    options.timestamp_column =
        static_cast<int>(flags.GetInt("timestamp-col", -1));
    auto loaded = LoadCsv(flags.GetString("csv", ""), options);
    if (!loaded.ok()) return Fail(loaded.status());
    rows = std::move(loaded).value();
  } else {
    auto built = BuildDataset(flags.GetString("dataset", "synthetic"),
                              static_cast<int>(flags.GetInt("rows", 0)),
                              seed);
    if (!built.ok()) return Fail(built.status());
    rows = std::move(built).value();
  }
  if (rows.empty()) return Fail(Status::InvalidArgument("empty dataset"));

  TrackerConfig config;
  config.dim = static_cast<int>(rows.front().values.size());
  config.num_sites = static_cast<int>(flags.GetInt("sites", 20));
  const Timestamp span =
      rows.back().timestamp - rows.front().timestamp + 1;
  config.window = flags.GetInt("window", std::max<Timestamp>(1, span / 4));
  config.epsilon = flags.GetDouble("epsilon", 0.05);
  config.seed = seed;
  config.ell_override = static_cast<int>(flags.GetInt("ell", 0));
  config.net.drop = flags.GetDouble("net-drop", 0.0);
  config.net.duplicate = flags.GetDouble("net-dup", 0.0);
  config.net.delay_max = flags.GetInt("net-delay", 0);
  config.net.seed = static_cast<uint64_t>(flags.GetInt("net-seed", 0));
  config.net.reliable = flags.GetInt("net-reliable", 0) != 0;
  config.net.retry = std::max<Timestamp>(1, flags.GetInt("net-retry", 1));

  auto tracker = MakeTracker(algorithm.value(), config);
  if (!tracker.ok()) return Fail(tracker.status());

  DriverOptions options;
  options.query_points = static_cast<int>(flags.GetInt("queries", 50));
  options.seed = seed + 99;
  options.trace_jsonl = flags.GetString("trace-jsonl", "");
  const Status options_status = options.Validate();
  if (!options_status.ok()) return Fail(options_status);

  const bool want_metrics = flags.Has("metrics-json");
  if (want_metrics) obs::SetEnabled(true);

  const StatusOr<RunResult> run = RunTracker(
      tracker.value().get(), rows, config.num_sites, config.window, options);
  if (!run.ok()) return Fail(run.status());
  const RunResult& r = run.value();
  if (!r.trace_status.ok()) return Fail(r.trace_status);

  std::printf("algorithm        : %s\n", AlgorithmName(algorithm.value()));
  std::printf("rows x dim       : %d x %d\n", r.rows, config.dim);
  std::printf("sites m          : %d\n", config.num_sites);
  std::printf("window W         : %lld ticks (%.1f windows spanned)\n",
              static_cast<long long>(config.window), r.windows_spanned);
  std::printf("epsilon          : %.4f\n", config.epsilon);
  std::printf("avg_err          : %.5f\n", r.avg_err);
  std::printf("max_err          : %.5f\n", r.max_err);
  std::printf("msg (words/W)    : %.0f\n", r.words_per_window);
  std::printf("total words      : %ld (%ld messages, %ld broadcasts)\n",
              r.total_words, r.messages, r.broadcasts);
  std::printf("max site space   : %ld words\n", r.max_site_space_words);
  std::printf("update rate      : %.0f rows/s\n", r.update_rows_per_sec);
  std::printf("wire bytes       : %ld payload (%ld framed, %ld sends)\n",
              r.wire_payload_bytes, r.wire_frame_bytes, r.wire_transmissions);
  if (!options.trace_jsonl.empty()) {
    std::printf("trace written to : %s\n", options.trace_jsonl.c_str());
  }

  // Machine-readable summary for bench baselines: bytes are exact under
  // loopback, so baseline checks can demand zero drift.
  if (flags.Has("net-json")) {
    std::printf(
        "{\"algorithm\":\"%s\",\"total_words\":%ld,"
        "\"wire_payload_bytes\":%ld,\"wire_frame_bytes\":%ld,"
        "\"wire_transmissions\":%ld,\"windows_spanned\":%.6f,"
        "\"payload_bytes_per_window\":%.1f}\n",
        AlgorithmName(algorithm.value()), r.total_words, r.wire_payload_bytes,
        r.wire_frame_bytes, r.wire_transmissions, r.windows_spanned,
        r.windows_spanned > 0
            ? static_cast<double>(r.wire_payload_bytes) / r.windows_spanned
            : 0.0);
  }

  if (flags.Has("trace")) {
    std::printf("\n%-12s %10s %14s %14s\n", "timestamp", "err",
                "words_so_far", "site_space");
    for (const TraceEntry& e : r.trace) {
      std::printf("%-12lld %10.5f %14ld %14ld\n",
                  static_cast<long long>(e.timestamp), e.err,
                  e.words_so_far, e.site_space_words);
    }
  }

  if (want_metrics) {
    const std::string json = r.metrics.ToJson();
    const std::string dest = flags.GetString("metrics-json", "-");
    if (dest == "-" || dest == "1" || dest.empty()) {
      std::printf("%s\n", json.c_str());
    } else {
      const Status st = WriteTextFile(dest, json + "\n");
      if (!st.ok()) return Fail(st);
      std::printf("metrics written  : %s\n", dest.c_str());
    }
  }

  if (flags.Has("save-sketch")) {
    const Status st = SaveMatrixBinary(tracker.value()->Query().Rows(),
                                       flags.GetString("save-sketch", ""));
    if (!st.ok()) return Fail(st);
    std::printf("sketch saved to  : %s\n",
                flags.GetString("save-sketch", "").c_str());
  }
  return 0;
}

int CmdServeBench(const FlagSet& flags) {
  auto algorithm = ParseAlgorithm(flags.GetString("algorithm", "DA2"));
  if (!algorithm.ok()) return Fail(algorithm.status());

  serve::LoadGenOptions options;
  options.algorithm = algorithm.value();
  options.rows = static_cast<int>(flags.GetInt("rows", options.rows));
  options.dim = static_cast<int>(flags.GetInt("dim", options.dim));
  options.sites = static_cast<int>(flags.GetInt("sites", options.sites));
  options.epsilon = flags.GetDouble("epsilon", options.epsilon);
  options.window = flags.GetInt("window", 0);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 5));
  options.reader_threads =
      static_cast<int>(flags.GetInt("readers", options.reader_threads));
  options.min_queries_per_reader =
      flags.GetInt("min-queries", options.min_queries_per_reader);
  const Status valid = options.Validate();
  if (!valid.ok()) return Fail(valid);

  if (flags.GetInt("selfcheck", 0) != 0) {
    const Status status = serve::VerifyMetricsInvariance(options);
    if (!status.ok()) return Fail(status);
    std::printf("metrics-invariance self-check: ok\n");
    return 0;
  }

  // The latency histogram and serve.* counters live in the obs registry.
  obs::SetEnabled(true);
  auto report = serve::RunServingLoad(options);
  if (!report.ok()) return Fail(report.status());
  const serve::LoadGenReport& r = report.value();

  std::printf("algorithm        : %s\n", AlgorithmName(options.algorithm));
  std::printf("rows x dim       : %d x %d (%d sites)\n", options.rows,
              options.dim, options.sites);
  std::printf("readers          : %d\n", options.reader_threads);
  std::printf("versions         : %llu published\n",
              static_cast<unsigned long long>(r.versions_published));
  std::printf("queries          : %ld (%ld pca, %ld anomaly, %ld change)\n",
              r.total_queries, r.pca_queries, r.anomaly_queries,
              r.change_queries);
  std::printf("errors           : %ld\n", r.errors);
  std::printf("elapsed          : %.3f s\n", r.elapsed_seconds);
  std::printf("qps              : %.0f\n", r.qps);
  const auto it = r.metrics.histograms.find("serve.query.latency_us");
  if (it != r.metrics.histograms.end()) {
    std::printf("latency (us)     :");
    const obs::HistogramSnapshot& h = it->second;
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;
      if (i < h.edges.size()) {
        std::printf(" <=%ld:%ld", h.edges[i], h.counts[i]);
      } else {
        std::printf(" >%ld:%ld", h.edges.back(), h.counts[i]);
      }
    }
    std::printf("\n");
  }
  return r.errors == 0 ? 0 : 1;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(',', start);
    if (end == std::string::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    if (end == s.size()) break;
    start = end + 1;
  }
  return out;
}

int CmdSweep(const FlagSet& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  auto data = BuildDataset(flags.GetString("dataset", "synthetic"),
                           static_cast<int>(flags.GetInt("rows", 0)), seed);
  if (!data.ok()) return Fail(data.status());
  const std::vector<TimedRow>& rows = data.value();
  if (rows.empty()) return Fail(Status::InvalidArgument("empty dataset"));

  const int sites = static_cast<int>(flags.GetInt("sites", 20));
  const Timestamp span = rows.back().timestamp - rows.front().timestamp + 1;
  const Timestamp window =
      flags.GetInt("window", std::max<Timestamp>(1, span / 4));

  std::vector<Algorithm> algorithms;
  for (const std::string& name :
       SplitCommas(flags.GetString("algorithms", "PWOR,PWOR-ALL,DA2"))) {
    auto parsed = ParseAlgorithm(name);
    if (!parsed.ok()) return Fail(parsed.status());
    algorithms.push_back(parsed.value());
  }
  std::vector<double> epsilons;
  for (const std::string& e :
       SplitCommas(flags.GetString("epsilons", "0.2,0.1,0.05"))) {
    epsilons.push_back(std::atof(e.c_str()));
  }

  std::printf("algorithm,epsilon,sites,avg_err,max_err,words_per_window,"
              "max_site_space_words,update_rows_per_sec\n");
  for (Algorithm a : algorithms) {
    for (double eps : epsilons) {
      TrackerConfig config;
      config.dim = static_cast<int>(rows.front().values.size());
      config.num_sites = sites;
      config.window = window;
      config.epsilon = eps;
      config.seed = seed;
      auto tracker = MakeTracker(a, config);
      if (!tracker.ok()) return Fail(tracker.status());
      DriverOptions options;
      options.query_points = static_cast<int>(flags.GetInt("queries", 25));
      options.seed = seed + 99;
      const Status options_status = options.Validate();
      if (!options_status.ok()) return Fail(options_status);
      const StatusOr<RunResult> run =
          RunTracker(tracker.value().get(), rows, sites, window, options);
      if (!run.ok()) return Fail(run.status());
      const RunResult& r = run.value();
      std::printf("%s,%g,%d,%.6f,%.6f,%.0f,%ld,%.0f\n", AlgorithmName(a),
                  eps, sites, r.avg_err, r.max_err, r.words_per_window,
                  r.max_site_space_words, r.update_rows_per_sec);
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> known = {
      "dataset", "csv",     "timestamp-col", "algorithm", "epsilon",
      "sites",   "window",  "rows",          "seed",      "queries",
      "ell",     "save-sketch", "trace",     "algorithms", "epsilons",
      "threads", "trace-jsonl", "net-drop",  "net-dup",   "net-delay",
      "net-seed", "net-reliable", "net-retry", "net-json", "metrics-json",
      "dim", "readers", "min-queries", "selfcheck"};
  auto flags = FlagSet::Parse(argc, argv, known);
  if (!flags.ok()) return Fail(flags.status());

  // --threads overrides DSWM_THREADS (both default to 1: deterministic,
  // bit-identical single-threaded kernels).
  if (flags.value().Has("threads")) {
    ThreadPool::SetGlobalThreads(
        static_cast<int>(flags.value().GetInt("threads", 1)));
  }

  const auto& positional = flags.value().positional();
  const std::string command = positional.empty() ? "run" : positional[0];
  if (command == "run") return CmdRun(flags.value());
  if (command == "sweep") return CmdSweep(flags.value());
  if (command == "serve-bench") return CmdServeBench(flags.value());
  if (command == "datasets") return CmdDatasets(flags.value());
  if (command == "algorithms") return CmdAlgorithms();
  std::fprintf(
      stderr,
      "usage: dswm_cli [run|sweep|serve-bench|datasets|algorithms] "
      "[--flags]\n");
  return 1;
}

// dswm command-line tool. Runs one tracking experiment and prints the
// paper's metrics (avg/max covariance error, words per window, per-site
// space, update rate), sweeps a grid of them, drives the serving tier, or
// lists the datasets and algorithms. kUsage below is the synopsis;
// `dswm_cli --help` prints it. Every run is the lockstep replay of
// RunTracker (monitor/driver.h); --net-delay frames land inside the
// tracker calls that reach their due tick.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

#include "common/flags.h"
#include "core/tracker_factory.h"
#include "linalg/matrix_io.h"
#include "monitor/driver.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "serve/load_gen.h"
#include "stream/csv_loader.h"
#include "stream/pamap_like.h"
#include "stream/synthetic.h"
#include "stream/wiki_like.h"

namespace {

using namespace dswm;

constexpr char kUsage[] = R"(usage:
  dswm_cli run --dataset synthetic|pamap|wiki --algorithm DA2
           --epsilon 0.05 --sites 20 [--rows N] [--window W] [--seed S]
           [--queries Q] [--ell L] [--save-sketch out.mat]
  dswm_cli run --csv data.csv [--timestamp-col 0] --algorithm PWOR ...
  dswm_cli run ... --trace 1           # per-query-point error series
  dswm_cli run ... --trace-jsonl t.jsonl   # full message-ledger dump
  dswm_cli run ... --net-drop 0.01 --net-seed 7 [--net-dup P]
           [--net-delay D] [--net-reliable 1 --net-retry R]
  dswm_cli run ... --metrics-json -    # obs snapshot (spans + counters +
           comm gauges) as one JSON document to stdout, or to a file path
  dswm_cli sweep --dataset pamap --algorithms PWOR,DA2
           --epsilons 0.2,0.1,0.05 [--sites M] [--rows N] [--window W]
           [--seed S]                  # CSV to stdout
  dswm_cli serve-bench [--algorithm DA2] [--rows N] [--dim D]
           [--sites M] [--epsilon E] [--window W] [--readers R]
           [--min-queries Q] [--seed S]   # closed-loop serving load
  dswm_cli serve-bench --selfcheck 1      # metrics-invariance check only
  dswm_cli datasets [--rows N]
  dswm_cli algorithms                     # names --algorithm accepts
  dswm_cli --help | -h | help             # this text
Every run prints its digest, an FNV-1a of the estimates at the query
points and of the message ledger: equal digests, equal outputs. Set
DSWM_THREADS=T to evaluate the query points on T threads.
)";

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// The one reader of numeric flag text. The whole text must parse: empty
// text, trailing junk, a value outside the target type's range (int for
// counts and sizes, long for times, seeds and query budgets) and a
// non-finite double are each an InvalidArgument naming the flag. The
// first error is kept and later reads return their fallback, so a command
// reads all its numeric flags, then checks status() once before it does
// any work.
class NumberReader {
 public:
  explicit NumberReader(const FlagSet& flags) : flags_(flags) {}

  int Int(const std::string& name, int fallback) {
    return Flag(name, fallback);
  }
  long Long(const std::string& name, long fallback) {
    return Flag(name, fallback);
  }
  double Real(const std::string& name, double fallback) {
    return Flag(name, fallback);
  }

  /// Parses `text`; `what` names it in the error ("--epsilons entry").
  template <typename T>
  T Parse(const std::string& what, const std::string& text, T fallback) {
    static_assert(std::is_same_v<T, int> || std::is_same_v<T, long> ||
                  std::is_same_v<T, double>);
    char* end = nullptr;
    errno = 0;
    bool in_range = false;
    T value{};
    if constexpr (std::is_same_v<T, double>) {
      value = std::strtod(text.c_str(), &end);
      in_range = std::isfinite(value);
    } else {
      const long parsed = std::strtol(text.c_str(), &end, 10);
      in_range = errno != ERANGE &&
                 parsed >= std::numeric_limits<T>::min() &&
                 parsed <= std::numeric_limits<T>::max();
      value = static_cast<T>(parsed);
    }
    const bool whole = !text.empty() && end == text.c_str() + text.size();
    if (whole && in_range) return value;
    if (status_.ok()) {
      status_ = Status::InvalidArgument(
          what + " '" + text + "' is not a " +
          (std::is_same_v<T, double> ? "finite number"
           : std::is_same_v<T, int>  ? "whole number in int's range"
                                     : "whole number in long's range"));
    }
    return fallback;
  }

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  template <typename T>
  T Flag(const std::string& name, T fallback) {
    if (!flags_.Has(name)) return fallback;
    return Parse("--" + name, flags_.GetString(name, ""), fallback);
  }

  const FlagSet& flags_;
  Status status_;
};

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
  for (int a = static_cast<int>(Algorithm::kPwor);
       a <= static_cast<int>(Algorithm::kCentral); ++a) {
    std::printf("  %s\n", AlgorithmName(static_cast<Algorithm>(a)));
  }
  return 0;
}

int CmdDatasets(const FlagSet& flags) {
  NumberReader num(flags);
  const int rows = num.Int("rows", 0);
  if (!num.status().ok()) return Fail(num.status());
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

  NumberReader num(flags);
  const uint64_t seed = static_cast<uint64_t>(num.Long("seed", 1));
  const int timestamp_col = num.Int("timestamp-col", -1);
  const int dataset_rows = num.Int("rows", 0);
  const Timestamp window = num.Long("window", 0);
  TrackerConfig config;
  config.num_sites = num.Int("sites", 20);
  config.epsilon = num.Real("epsilon", 0.05);
  config.seed = seed;
  config.ell_override = num.Int("ell", 0);
  config.net.drop = num.Real("net-drop", 0.0);
  config.net.duplicate = num.Real("net-dup", 0.0);
  config.net.delay_max = num.Long("net-delay", 0);
  config.net.seed = static_cast<uint64_t>(num.Long("net-seed", 0));
  config.net.reliable = num.Int("net-reliable", 0) != 0;
  config.net.retry = std::max<Timestamp>(1, num.Long("net-retry", 1));
  DriverOptions options;
  options.query_points = num.Int("queries", 50);
  options.seed = seed + 99;
  if (!num.status().ok()) return Fail(num.status());

  std::vector<TimedRow> rows;
  if (flags.Has("csv")) {
    CsvOptions csv_options;
    csv_options.timestamp_column = timestamp_col;
    auto loaded = LoadCsv(flags.GetString("csv", ""), csv_options);
    if (!loaded.ok()) return Fail(loaded.status());
    rows = std::move(loaded).value();
  } else {
    auto built = BuildDataset(flags.GetString("dataset", "synthetic"),
                              dataset_rows, seed);
    if (!built.ok()) return Fail(built.status());
    rows = std::move(built).value();
  }
  if (rows.empty()) return Fail(Status::InvalidArgument("empty dataset"));

  config.dim = static_cast<int>(rows.front().values.size());
  const Timestamp span =
      rows.back().timestamp - rows.front().timestamp + 1;
  config.window =
      flags.Has("window") ? window : std::max<Timestamp>(1, span / 4);

  auto tracker = MakeTracker(algorithm.value(), config);
  if (!tracker.ok()) return Fail(tracker.status());

  const std::string trace_path = flags.GetString("trace-jsonl", "");
  const Status options_status = options.Validate();
  if (!options_status.ok()) return Fail(options_status);

  const bool want_metrics = flags.Has("metrics-json");
  if (want_metrics) obs::SetEnabled(true);

  const StatusOr<RunResult> run = RunTracker(
      tracker.value().get(), rows, config.num_sites, config.window, options);
  if (!run.ok()) return Fail(run.status());
  const RunResult& r = run.value();
  if (!trace_path.empty()) {
    // The merged message-ledger trace of every channel the tracker owns,
    // one transmission per line.
    std::string trace_text;
    for (net::Channel* c : tracker.value()->Channels()) {
      c->ledger().AppendJsonl(&trace_text);
    }
    const Status st = WriteTextFile(trace_path, trace_text);
    if (!st.ok()) return Fail(st);
  }

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
  std::printf("digest           : 0x%016llx\n",
              static_cast<unsigned long long>(r.digest));
  if (!trace_path.empty()) {
    std::printf("trace written to : %s\n", trace_path.c_str());
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

  NumberReader num(flags);
  serve::LoadGenOptions options;
  options.algorithm = algorithm.value();
  options.rows = num.Int("rows", options.rows);
  options.dim = num.Int("dim", options.dim);
  options.sites = num.Int("sites", options.sites);
  options.epsilon = num.Real("epsilon", options.epsilon);
  options.window = num.Long("window", 0);
  options.seed = static_cast<uint64_t>(num.Long("seed", 5));
  options.reader_threads = num.Int("readers", options.reader_threads);
  options.min_queries_per_reader =
      num.Long("min-queries", options.min_queries_per_reader);
  const bool selfcheck = num.Int("selfcheck", 0) != 0;
  if (!num.status().ok()) return Fail(num.status());
  const Status valid = options.Validate();
  if (!valid.ok()) return Fail(valid);

  if (selfcheck) {
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
  // Each entry must be a whole finite number; the tracker config checks
  // the range.
  NumberReader num(flags);
  std::vector<double> epsilons;
  for (const std::string& entry :
       SplitCommas(flags.GetString("epsilons", "0.2,0.1,0.05"))) {
    epsilons.push_back(num.Parse("--epsilons entry", entry, 0.0));
  }
  const uint64_t seed = static_cast<uint64_t>(num.Long("seed", 1));
  const int dataset_rows = num.Int("rows", 0);
  const int sites = num.Int("sites", 20);
  const Timestamp window_flag = num.Long("window", 0);
  const int queries = num.Int("queries", 25);
  if (!num.status().ok()) return Fail(num.status());

  auto data = BuildDataset(flags.GetString("dataset", "synthetic"),
                           dataset_rows, seed);
  if (!data.ok()) return Fail(data.status());
  const std::vector<TimedRow>& rows = data.value();
  if (rows.empty()) return Fail(Status::InvalidArgument("empty dataset"));

  const Timestamp span = rows.back().timestamp - rows.front().timestamp + 1;
  const Timestamp window = flags.Has("window")
                               ? window_flag
                               : std::max<Timestamp>(1, span / 4);

  std::vector<Algorithm> algorithms;
  for (const std::string& name :
       SplitCommas(flags.GetString("algorithms", "PWOR,PWOR-ALL,DA2"))) {
    auto parsed = ParseAlgorithm(name);
    if (!parsed.ok()) return Fail(parsed.status());
    algorithms.push_back(parsed.value());
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
      options.query_points = queries;
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
  // Answered before FlagSet::Parse, which would read --help as a flag
  // missing its value.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
  }

  const std::vector<std::string> known = {
      "dataset", "csv",     "timestamp-col", "algorithm", "epsilon",
      "sites",   "window",  "rows",          "seed",      "queries",
      "ell",     "save-sketch", "trace",     "algorithms", "epsilons",
      "trace-jsonl", "net-drop",  "net-dup",   "net-delay", "net-seed",
      "net-reliable", "net-retry", "metrics-json", "dim", "readers",
      "min-queries", "selfcheck"};
  auto flags = FlagSet::Parse(argc, argv, known);
  if (!flags.ok()) return Fail(flags.status());

  const auto& positional = flags.value().positional();
  const std::string command = positional.empty() ? "run" : positional[0];
  if (command == "run") return CmdRun(flags.value());
  if (command == "sweep") return CmdSweep(flags.value());
  if (command == "serve-bench") return CmdServeBench(flags.value());
  if (command == "datasets") return CmdDatasets(flags.value());
  if (command == "algorithms") return CmdAlgorithms();
  if (command == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  std::fprintf(stderr, "error: unknown command '%s'\n%s", command.c_str(),
               kUsage);
  return 1;
}

#include "harness.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stream/pamap_like.h"
#include "stream/synthetic.h"
#include "stream/wiki_like.h"

namespace dswm::bench {

bool BenchMetricsEnabled() {
  const char* env = std::getenv("DSWM_BENCH_METRICS");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

double BenchScale() {
  const char* env = std::getenv("DSWM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double s = std::atof(env);
  return s > 0.0 ? s : 1.0;
}

const char* BenchJsonPath() {
  const char* env = std::getenv("DSWM_BENCH_JSON");
  return (env != nullptr && env[0] != '\0') ? env : nullptr;
}

int BenchmarkMain(int argc, char** argv) {
  // The same DSWM_BENCH_METRICS switch that RunCell honors: micro benches
  // then exercise the enabled instrumentation path (the overhead smoke in
  // tools/run_checks.sh compares this against the disabled default).
  if (BenchMetricsEnabled()) obs::SetEnabled(true);
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  // Injected flags must outlive Initialize; keep them in static storage.
  static std::string out_flag;
  static std::string fmt_flag;
  if (BenchJsonPath() != nullptr && !has_out) {
    out_flag = std::string("--benchmark_out=") + BenchJsonPath();
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

namespace {

// Figure/table binaries do not run under google-benchmark, so PrintSeriesRow
// accumulates every series cell here and an atexit hook writes them to
// DSWM_BENCH_JSON in one document.
struct SeriesCell {
  std::string dataset;
  std::string algorithm;
  double eps;
  int num_sites;
  RunResult result;
};

std::vector<SeriesCell>& SeriesLog() {
  static std::vector<SeriesCell> log;
  return log;
}

void FlushSeriesJson() {
  const char* path = BenchJsonPath();
  if (path == nullptr || SeriesLog().empty()) return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"context\": {\"bench_scale\": %.6g},\n  \"series\": [\n",
               BenchScale());
  const std::vector<SeriesCell>& log = SeriesLog();
  for (size_t i = 0; i < log.size(); ++i) {
    const SeriesCell& c = log[i];
    std::fprintf(
        f,
        "    {\"dataset\": \"%s\", \"algorithm\": \"%s\", \"eps\": %.6g, "
        "\"sites\": %d, \"avg_err\": %.9g, \"max_err\": %.9g, "
        "\"words_per_window\": %.9g, \"max_site_space_words\": %ld, "
        "\"update_rows_per_sec\": %.9g",
        c.dataset.c_str(), c.algorithm.c_str(), c.eps, c.num_sites,
        c.result.avg_err, c.result.max_err, c.result.words_per_window,
        c.result.max_site_space_words, c.result.update_rows_per_sec);
    // Per-phase profiles ride along only when DSWM_BENCH_METRICS was set,
    // so existing baselines stay byte-identical with metrics off.
    if (!c.result.metrics.empty()) {
      std::fprintf(f, ", \"metrics\": %s", c.result.metrics.ToJson().c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < log.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void RecordSeries(const std::string& dataset, const std::string& algorithm,
                  double eps, int num_sites, const RunResult& result) {
  if (BenchJsonPath() == nullptr) return;
  if (SeriesLog().empty()) std::atexit(FlushSeriesJson);
  SeriesLog().push_back(SeriesCell{dataset, algorithm, eps, num_sites, result});
}

}  // namespace

Workload MakePamapWorkload() {
  const double scale = BenchScale();
  PamapLikeConfig config;
  config.rows = static_cast<int>(200000 * scale);
  PamapLikeGenerator gen(config);
  Workload w;
  w.name = "PAMAP";
  w.rows = Materialize(&gen, config.rows);
  w.dim = config.dim;
  // Poisson(1) arrivals: ~1 row per tick, so a 50k-tick window holds ~50k
  // rows (a quarter of the stream, like the paper's 200k of 814k).
  w.window = static_cast<Timestamp>(50000 * scale);
  if (w.window < 1000) w.window = 1000;
  return w;
}

Workload MakeSyntheticWorkload() {
  const double scale = BenchScale();
  SyntheticConfig config;
  config.rows = static_cast<int>(80000 * scale);
  config.dim = scale >= 4.0 ? 300 : 128;
  SyntheticGenerator gen(config);
  Workload w;
  w.name = "SYNTHETIC";
  w.rows = Materialize(&gen, config.rows);
  w.dim = config.dim;
  w.window = static_cast<Timestamp>(16000 * scale);
  if (w.window < 1000) w.window = 1000;
  return w;
}

Workload MakeWikiWorkload() {
  const double scale = BenchScale();
  WikiLikeConfig config;
  config.rows = static_cast<int>(30000 * scale);
  WikiLikeGenerator gen(config);
  Workload w;
  w.name = "WIKI";
  w.rows = Materialize(&gen, config.rows);
  w.dim = config.dim;
  // rows_per_day = 20 => a 300-day window holds ~6000 rows.
  w.window = static_cast<Timestamp>(300 * scale);
  if (w.window < 50) w.window = 50;
  return w;
}

Workload Truncate(Workload workload, double fraction) {
  const size_t keep =
      static_cast<size_t>(workload.rows.size() * fraction);
  if (keep < workload.rows.size()) workload.rows.resize(keep);
  return workload;
}

std::vector<double> EpsilonSweep() { return {0.2, 0.15, 0.1, 0.07, 0.05}; }

std::vector<int> SiteSweep() { return {5, 10, 20, 40, 80}; }

RunResult RunCell(Algorithm algorithm, const Workload& workload, double eps,
                  int num_sites, uint64_t seed) {
  TrackerConfig config;
  config.dim = workload.dim;
  config.num_sites = num_sites;
  config.window = workload.window;
  config.epsilon = eps;
  config.seed = seed;
  auto tracker_or = MakeTracker(algorithm, config);
  DSWM_CHECK(tracker_or.ok());
  DriverOptions options;
  options.seed = seed * 7 + 13;
  if (BenchMetricsEnabled()) obs::SetEnabled(true);
  StatusOr<RunResult> run = RunTracker(tracker_or.value().get(), workload.rows,
                                       num_sites, workload.window, options);
  DSWM_CHECK(run.ok());
  return std::move(run).value();
}

void PrintSeriesHeader() {
  std::printf("%-10s %-10s %6s %4s %12s %12s %14s %12s %12s\n", "dataset",
              "algorithm", "eps", "m", "avg_err", "max_err", "msg(words/W)",
              "space(words)", "rows/s");
}

void PrintSeriesRow(const std::string& dataset, const std::string& algorithm,
                    double eps, int num_sites, const RunResult& r) {
  RecordSeries(dataset, algorithm, eps, num_sites, r);
  std::printf("%-10s %-10s %6.3f %4d %12.5f %12.5f %14.0f %12ld %12.0f\n",
              dataset.c_str(), algorithm.c_str(), eps, num_sites, r.avg_err,
              r.max_err, r.words_per_window, r.max_site_space_words,
              r.update_rows_per_sec);
  std::fflush(stdout);
}

void RunFigure(const Workload& workload,
               const std::vector<Algorithm>& algorithms,
               const std::vector<double>& eps_sweep,
               const std::vector<int>& site_sweep, double default_eps,
               int default_sites) {
  std::printf("== %s: panels (a)-(d): sweep epsilon at m=%d ==\n",
              workload.name.c_str(), default_sites);
  PrintSeriesHeader();
  for (Algorithm a : algorithms) {
    for (double eps : eps_sweep) {
      const RunResult r = RunCell(a, workload, eps, default_sites);
      PrintSeriesRow(workload.name, AlgorithmName(a), eps, default_sites, r);
    }
  }
  if (!site_sweep.empty()) {
    std::printf("== %s: panels (e)-(f): sweep m at eps=%.2f ==\n",
                workload.name.c_str(), default_eps);
    PrintSeriesHeader();
    for (Algorithm a : algorithms) {
      for (int m : site_sweep) {
        const RunResult r = RunCell(a, workload, default_eps, m);
        PrintSeriesRow(workload.name, AlgorithmName(a), default_eps, m, r);
      }
    }
  }
}

}  // namespace dswm::bench

// Query-serving bench: a live DA2 tracker feeding the versioned
// SnapshotStore while closed-loop reader threads drive mixed PCA /
// anomaly / change queries through QueryService sessions.
//
// Reported per cell (reader count in {1, 2, 4, 8}): sustained QPS over
// the loaded phase, per-query latency percentiles read off the
// serve.query.latency_us histogram, query mix counts, versions
// published, and the error count -- which must be zero: every query
// against a held snapshot succeeds no matter how publication
// interleaves. The run starts with the metrics-invariance self-check
// (the identical feed + query set replayed with metrics off and on must
// produce bitwise-identical results), so the histogram instrumentation
// below provably never touches a served number.
//
// QPS here includes the feed: readers run concurrently with tracker
// ingestion and keep querying until the stream ends, so the number is
// "queries served while the system also absorbs its stream", not an
// idle-store ceiling.
//
// Regenerate the committed baseline with:
//   DSWM_BENCH_JSON=bench/BENCH_query_serving.json
//     build-release/bench/bench_query_serving  (one command line)
// The emitter writes the _comment/_command fields itself; timings are
// informational and nothing compares them with tolerance.

#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "harness.h"
#include "obs/metrics.h"
#include "serve/load_gen.h"

namespace dswm::bench {
namespace {

struct Cell {
  int readers = 0;
  serve::LoadGenReport report;
  obs::HistogramSnapshot latency;
};

// Upper-bound percentile: the smallest bucket edge whose cumulative count
// covers fraction q (overflow reports the last edge, i.e. ">edge").
long PercentileUpperBoundUs(const obs::HistogramSnapshot& h, double q) {
  if (h.total_count == 0) return 0;
  const long target = static_cast<long>(q * static_cast<double>(h.total_count));
  long cumulative = 0;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    cumulative += h.counts[i];
    if (cumulative > target) {
      return i < h.edges.size() ? h.edges[i] : h.edges.back();
    }
  }
  return h.edges.back();
}

Cell RunCell(int readers, int rows) {
  serve::LoadGenOptions options;
  options.rows = rows;
  options.reader_threads = readers;
  auto got = serve::RunServingLoad(options);
  DSWM_CHECK(got.ok());

  Cell cell;
  cell.readers = readers;
  cell.report = std::move(got).value();
  const auto it = cell.report.metrics.histograms.find("serve.query.latency_us");
  if (it != cell.report.metrics.histograms.end()) cell.latency = it->second;
  // The acceptance bar: a held snapshot serves every query; the only
  // Status errors possible are bugs.
  DSWM_CHECK(cell.report.errors == 0);
  DSWM_CHECK(cell.report.total_queries > 0);
  DSWM_CHECK(cell.report.versions_published >= 1);
  DSWM_CHECK(cell.latency.total_count == cell.report.total_queries);
  return cell;
}

void WriteJson(const char* path, int rows, const std::vector<Cell>& cells) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_query_serving: cannot write %s\n", path);
    return;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"_comment\": \"Query-serving tier throughput: closed-loop reader "
      "threads driving mixed PCA/anomaly/change queries against the "
      "versioned SnapshotStore while a live DA2 tracker feeds it. Timings "
      "and QPS are informational (machine-dependent); the structural "
      "fields run_checks.sh smokes are errors == 0 and a populated "
      "latency_us histogram.\",\n"
      "  \"_command\": \"DSWM_BENCH_JSON=bench/BENCH_query_serving.json "
      "build-release/bench/bench_query_serving\",\n");
  std::fprintf(f, "  \"workload\": \"serving\",\n  \"algorithm\": \"DA2\",\n");
  std::fprintf(f, "  \"rows\": %d,\n  \"cells\": [\n", rows);
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"readers\": %d, \"queries\": %ld, \"errors\": %ld, "
                 "\"elapsed_sec\": %.4f, \"qps\": %.0f, \"versions\": %llu, "
                 "\"p50_us\": %ld, \"p99_us\": %ld,\n",
                 c.readers, c.report.total_queries, c.report.errors,
                 c.report.elapsed_seconds, c.report.qps,
                 static_cast<unsigned long long>(c.report.versions_published),
                 PercentileUpperBoundUs(c.latency, 0.50),
                 PercentileUpperBoundUs(c.latency, 0.99));
    std::fprintf(f, "     \"latency_us\": {\"edges\": [");
    for (size_t e = 0; e < c.latency.edges.size(); ++e) {
      std::fprintf(f, "%ld%s", c.latency.edges[e],
                   e + 1 < c.latency.edges.size() ? ", " : "");
    }
    std::fprintf(f, "], \"counts\": [");
    for (size_t e = 0; e < c.latency.counts.size(); ++e) {
      std::fprintf(f, "%ld%s", c.latency.counts[e],
                   e + 1 < c.latency.counts.size() ? ", " : "");
    }
    std::fprintf(f, "]}}%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Main() {
  // Self-check before any number is printed: metrics must be inert.
  {
    serve::LoadGenOptions check;
    check.rows = 1500;
    const Status status = serve::VerifyMetricsInvariance(check);
    DSWM_CHECK(status.ok());
    std::printf("metrics-invariance self-check: ok\n");
  }

  // Histograms and serve.* counters come from the obs registry.
  obs::SetEnabled(true);

  const int rows = static_cast<int>(6000 * BenchScale());
  std::printf("serving workload: DA2, %d rows, dim 32, 4 sites\n", rows);
  std::printf("%8s %10s %8s %12s %10s %10s %8s %8s\n", "readers", "queries",
              "errors", "elapsed(s)", "qps", "versions", "p50(us)", "p99(us)");
  std::vector<Cell> cells;
  for (int readers : {1, 2, 4, 8}) {
    Cell c = RunCell(readers, rows);
    std::printf("%8d %10ld %8ld %12.3f %10.0f %10llu %8ld %8ld\n", c.readers,
                c.report.total_queries, c.report.errors,
                c.report.elapsed_seconds, c.report.qps,
                static_cast<unsigned long long>(c.report.versions_published),
                PercentileUpperBoundUs(c.latency, 0.50),
                PercentileUpperBoundUs(c.latency, 0.99));
    std::fflush(stdout);
    cells.push_back(std::move(c));
  }

  const char* path = BenchJsonPath();
  if (path != nullptr) WriteJson(path, rows, cells);
  return 0;
}

}  // namespace
}  // namespace dswm::bench

int main() { return dswm::bench::Main(); }

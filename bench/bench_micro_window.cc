// Microbenchmarks of the sliding-window substrates: scalar and matrix
// exponential histograms, plus the batched-engine hot paths (mEH
// merge/expiry cascades and the sampler refill materialization) at 1 vs
// N threads. The /1-thread cells are the sequential baseline -- with one
// thread the batched engine degenerates to the inline sequential loop --
// so the committed bench/BENCH_micro_window.json pins the batched speedup
// as a /N-vs-/1 ratio within one file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "sampling/scaled_rows.h"
#include "stream/timed_row.h"
#include "window/exponential_histogram.h"
#include "window/matrix_eh.h"

namespace dswm {
namespace {

void BM_ExponentialHistogramInsert(benchmark::State& state) {
  const double eps = 1.0 / static_cast<double>(state.range(0));
  ExponentialHistogram eh(eps, 100000);
  Rng rng(1);
  Timestamp t = 0;
  for (auto _ : state) {
    ++t;
    eh.Insert(1.0 + rng.NextDouble(), t);
    benchmark::DoNotOptimize(eh.Estimate());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExponentialHistogramInsert)->Arg(10)->Arg(20)->Arg(50);

void BM_MatrixEhInsert(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  MatrixExpHistogram meh(d, 0.1, 50000);
  Rng rng(2);
  std::vector<double> row(d);
  Timestamp t = 0;
  for (auto _ : state) {
    ++t;
    for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
    meh.Insert(row.data(), t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatrixEhInsert)->Arg(43)->Arg(128)->Arg(512);

void BM_MatrixEhQueryCovariance(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  MatrixExpHistogram meh(d, 0.1, 50000);
  Rng rng(3);
  std::vector<double> row(d);
  for (Timestamp t = 1; t <= 20000; ++t) {
    for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
    meh.Insert(row.data(), t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(meh.QueryCovariance().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatrixEhQueryCovariance)->Arg(43)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Steady-state mEH update cost on a bursty stream: blocks of unit-norm
// rows punctuated by one heavy row whose mass makes the accumulated light
// tail merge-eligible all at once. Each post-burst Compress then carries
// many independent merge groups -- the shape the batched engine
// parallelizes -- while expiry continuously retires old bursts.
void BM_MehMergeExpiry(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const int kLightPerBurst = 480;
  const double kHeavyScale = 42.0;
  const Timestamp kWindow = 3000;

  ThreadPool::SetGlobalThreads(threads);
  MatrixExpHistogram meh(d, 0.1, kWindow);
  Rng rng(11);
  std::vector<double> row(d);
  Timestamp t = 0;
  // Warm up past the first window so expiry is active during timing.
  auto block = [&]() {
    for (int i = 0; i < kLightPerBurst; ++i) {
      for (double& v : row) v = rng.NextGaussian();
      meh.Insert(row.data(), ++t);
    }
    for (double& v : row) v = kHeavyScale * rng.NextGaussian();
    meh.Insert(row.data(), ++t);
  };
  for (int warm = 0; warm < 8; ++warm) block();

  for (auto _ : state) {
    block();
    benchmark::DoNotOptimize(meh.TotalRows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kLightPerBurst + 1));
  ThreadPool::SetGlobalThreads(1);
}
// UseRealTime: wall clock is the quantity the /N-vs-/1 ratio pins (the
// default main-thread CPU clock under-counts offloaded work).
// MeasureProcessCPUTime: cpu_time then covers workers too, so /1 vs /4
// cpu_time agreeing is the no-extra-work check. On a single-core
// container the /4 wall cells degenerate to /1 (see EXPERIMENTS.md).
BENCHMARK(BM_MehMergeExpiry)
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 4})
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// The sampler refill path: materializing k picked rows into the scaled
// query sketch (sampling/scaled_rows.h), exactly as SamplingTracker::
// Query does for the priority scheme.
void BM_SamplerRefill(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const int k = 512;

  Rng rng(13);
  std::vector<TimedRow> rows(k);
  std::vector<const TimedRow*> picked(k);
  for (int i = 0; i < k; ++i) {
    rows[i].values.resize(d);
    for (double& v : rows[i].values) v = rng.NextGaussian();
    rows[i].timestamp = i + 1;
    picked[i] = &rows[i];
  }
  const double tau_k = 0.5;

  ThreadPool::SetGlobalThreads(threads);
  for (auto _ : state) {
    Matrix sketch = MaterializeScaledRows(
        picked, d, [tau_k](int /*i*/, double w) {
          return std::sqrt(std::max(w, tau_k) / w);
        });
    benchmark::DoNotOptimize(sketch.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(k));
  ThreadPool::SetGlobalThreads(1);
}
BENCHMARK(BM_SamplerRefill)
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 4})
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace dswm

int main(int argc, char** argv) { return dswm::bench::BenchmarkMain(argc, argv); }

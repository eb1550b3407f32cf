// Microbenchmarks of the linear-algebra substrate (google-benchmark):
// the kernels that dominate tracker update cost.

#include <algorithm>
#include <cmath>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/psd_sqrt.h"
#include "linalg/spectral_norm.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"

namespace dswm {
namespace {

Matrix RandomMatrix(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) m(i, j) = rng.NextGaussian();
  }
  return m;
}

// Scoped thread-count override for the *Threads benchmark variants; every
// other benchmark runs on the default single-threaded pool.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) { ThreadPool::SetGlobalThreads(n); }
  ~ThreadGuard() { ThreadPool::SetGlobalThreads(1); }
};

Matrix RandomSymmetric(int d, uint64_t seed) {
  const Matrix a = RandomMatrix(2 * d, d, seed);
  return GramTranspose(a);
}

void BM_OuterProductUpdate(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Matrix c(d, d);
  Rng rng(1);
  std::vector<double> v(d);
  for (double& x : v) x = rng.NextGaussian();
  for (auto _ : state) {
    c.AddOuterProduct(v.data(), 1.0);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OuterProductUpdate)->Arg(43)->Arg(128)->Arg(300)->Arg(512);

void BM_MatMul(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Matrix a = RandomMatrix(d, d, 7);
  const Matrix b = RandomMatrix(d, d, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatMul)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_MatMulReference(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Matrix a = RandomMatrix(d, d, 7);
  const Matrix b = RandomMatrix(d, d, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulReference(a, b).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatMulReference)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_MatMulThreads(benchmark::State& state) {
  const int d = 512;
  const ThreadGuard guard(static_cast<int>(state.range(0)));
  const Matrix a = RandomMatrix(d, d, 7);
  const Matrix b = RandomMatrix(d, d, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatMulThreads)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_GramTranspose(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Matrix a = RandomMatrix(d, d, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramTranspose(a).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GramTranspose)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_GramTransposeReference(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Matrix a = RandomMatrix(d, d, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramTransposeReference(a).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GramTransposeReference)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_GramTransposeThreads(benchmark::State& state) {
  const int d = 512;
  const ThreadGuard guard(static_cast<int>(state.range(0)));
  const Matrix a = RandomMatrix(d, d, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramTranspose(a).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GramTransposeThreads)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_Gram(benchmark::State& state) {
  // The FD shrink shape: short side of a wide sketch.
  const int n = static_cast<int>(state.range(0));
  const Matrix a = RandomMatrix(n, 512, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gram(a).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Gram)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_GramReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Matrix a = RandomMatrix(n, 512, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramReference(a).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GramReference)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_MatVec(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Matrix m = RandomSymmetric(d, 2);
  std::vector<double> x(d, 1.0);
  std::vector<double> y(d);
  for (auto _ : state) {
    MatVec(m, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MatVec)->Arg(43)->Arg(128)->Arg(512);

void BM_SymmetricEigen(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Matrix m = RandomSymmetric(d, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymmetricEigen(m).values.data());
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(16)->Arg(43)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_RightSvdShortSide(benchmark::State& state) {
  // The FD shrink shape: few rows, many columns.
  const int rows = static_cast<int>(state.range(0));
  const Matrix m = RandomMatrix(rows, 512, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RightSvd(m).vt.data());
  }
}
BENCHMARK(BM_RightSvdShortSide)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_SpectralNormPowerIteration(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Matrix m = RandomSymmetric(d, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpectralNormSym(m));
  }
}
BENCHMARK(BM_SpectralNormPowerIteration)->Arg(43)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// DA1's norm check (core/da1_tracker.cc) from a cold start: Lanczos steps
// until the top |theta| changes by at most 1e-6 relative, then the top
// Ritz vector. The "steps" counter is the steps per check.
void BM_LanczosNormCheck(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Matrix m = RandomSymmetric(d, 9);
  const Matrix s = RandomMatrix(1, d, 10);
  const SymmetricApplyFn apply = [&m](const double* x, double* y) {
    MatVec(m, x, y);
  };
  Lanczos lanczos;
  std::vector<double> top_vector(d);
  long steps = 0;
  for (auto _ : state) {
    lanczos.Start(s.Row(0), d, 64);
    double top = 0.0;
    while (lanczos.Step(apply)) {
      const double prev = top;
      top = std::max(lanczos.max_ritz_value(), -lanczos.min_ritz_value());
      if (lanczos.steps() >= 3 && std::fabs(top - prev) <= 1e-6 * top) break;
    }
    lanczos.TopRitzVector(top_vector.data());
    steps += lanczos.steps();
    benchmark::DoNotOptimize(top);
    benchmark::DoNotOptimize(top_vector.data());
  }
  state.counters["steps"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LanczosNormCheck)->Arg(43)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// The certificate's worst case: ||M||_2 = 1 and theta = 1.01, so the
// Frobenius test fails and both Cholesky factorizations run to the end.
void BM_CertifyNormBelow(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Matrix m = RandomSymmetric(d, 11);
  const EigenResult eig = SymmetricEigen(m);
  Matrix unit(d, d);
  unit.AddScaled(m, 1.0 / eig.values.front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CertifyNormBelow(unit, 1.01));
  }
}
BENCHMARK(BM_CertifyNormBelow)->Arg(43)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_PsdSqrt(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Matrix m = RandomSymmetric(d, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PsdSqrt(m).data());
  }
}
BENCHMARK(BM_PsdSqrt)->Arg(43)->Arg(128)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dswm

int main(int argc, char** argv) { return dswm::bench::BenchmarkMain(argc, argv); }

// Microbenchmarks of the sketching substrate: Frequent Directions
// throughput (amortized append incl. shrinks), IWMT input, and the
// priority-sampling site path.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "harness.h"
#include "core/iwmt.h"
#include "sampling/priority.h"
#include "sampling/site_queue.h"
#include "sketch/frequent_directions.h"

namespace dswm {
namespace {

void BM_FrequentDirectionsAppend(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int ell = static_cast<int>(state.range(1));
  FrequentDirections fd(d, ell);
  Rng rng(1);
  std::vector<double> row(d);
  for (auto _ : state) {
    for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
    fd.Append(row.data());
    if (fd.input_mass() > 1e12) fd.Reset();  // keep state bounded
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrequentDirectionsAppend)
    ->Args({43, 20})
    ->Args({128, 20})
    ->Args({128, 60})
    ->Args({512, 40});

// theta follows DA2's window-like sawtooth (IwmtTrigger's kSawtooth): a
// share of the live mass, which grows with each row and halves every 40
// rows as a block expires. A theta of a share of all mass read so far
// would outgrow the residual within a few thousand inputs, after which
// the mass prefilter settles every input and the certificate never runs.
void BM_IwmtInput(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  IwmtProtocol iwmt(d, 40);
  Rng rng(2);
  std::vector<double> row(d);
  std::vector<IwmtOutput> outs;
  double live = 0.0;
  long i = 0;
  for (auto _ : state) {
    for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
    live += NormSquared(row.data(), d);
    if (++i % 40 == 0) live *= 0.5;
    outs.clear();
    iwmt.Input(row.data(), 0.05 * live, &outs);
    benchmark::DoNotOptimize(outs.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IwmtInput)->Arg(43)->Arg(128)->Arg(512);

void BM_PrioritySitePath(benchmark::State& state) {
  // The per-row site work of PWOR: draw key, dominance-note, enqueue.
  const int d = static_cast<int>(state.range(0));
  SiteSampleQueue queue(400, 1000000);
  Rng rng(3);
  TimedRow row;
  row.values.assign(d, 0.0);
  Timestamp t = 0;
  for (auto _ : state) {
    ++t;
    for (int j = 0; j < d; ++j) row.values[j] = rng.NextGaussian();
    row.timestamp = t;
    const double w = row.NormSquared();
    const double key = DrawKey(SamplingScheme::kPriority, w, &rng);
    const double bv = KeyBucketValue(SamplingScheme::kPriority, key);
    queue.NoteArrival(bv);
    queue.Enqueue(row, key, bv);
    queue.Expire(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrioritySitePath)->Arg(43)->Arg(512);

}  // namespace
}  // namespace dswm

int main(int argc, char** argv) { return dswm::bench::BenchmarkMain(argc, argv); }

// Figure 4(d): update rate (rows processed per second) of every protocol
// on every dataset at the default setting (eps = 0.05, m = 20).
//
// Paper shapes: deterministic protocols are fastest at small d (PAMAP)
// but their rate collapses as d grows (matrix factorizations); sampling
// rates are insensitive to d.

#include <cstdio>

#include "harness.h"

int main() {
  using namespace dswm;
  using namespace dswm::bench;

  const double eps = 0.05;
  const int m = 20;
  const Workload workloads[] = {MakePamapWorkload(), MakeSyntheticWorkload(),
                                MakeWikiWorkload()};

  std::printf("Figure 4(d): update rate (rows/s), eps=%.2f, m=%d\n\n", eps,
              m);
  std::printf("%-10s", "algorithm");
  for (const Workload& w : workloads) std::printf(" %12s", w.name.c_str());
  std::printf("\n");

  for (Algorithm a : PaperAlgorithms()) {
    std::printf("%-10s", AlgorithmName(a));
    for (const Workload& w : workloads) {
      const RunResult r = RunCell(a, w, eps, m);
      std::printf(" %12.0f", r.update_rows_per_sec);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}

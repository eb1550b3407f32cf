// Deterministic SUM tracking over distributed sliding windows
// (Algorithm 3 / Theorem 1) as a standalone tool: monitoring windowed
// traffic volume across routers with provable relative error and
// logarithmic communication.

#include <cmath>
#include <cstdio>
#include <deque>

#include "common/rng.h"
#include "core/sum_tracker.h"

int main() {
  using namespace dswm;

  const int sites = 12;          // routers
  const Timestamp window = 5000; // "last 5000 ticks" of traffic
  const double eps = 0.05;

  SumTracker tracker(sites, window, eps);

  // Exact reference (what a naive coordinator would need all data for).
  std::deque<std::pair<double, Timestamp>> exact;
  auto exact_sum = [&](Timestamp now) {
    while (!exact.empty() && exact.front().second <= now - window) {
      exact.pop_front();
    }
    double s = 0.0;
    for (const auto& [w, t] : exact) s += w;
    return s;
  };

  Rng rng(2024);
  double worst_rel_err = 0.0;
  long items = 0;
  std::printf("%-10s %16s %16s %10s\n", "tick", "exact_sum", "estimate",
              "rel_err");
  for (Timestamp t = 1; t <= 60000; ++t) {
    const dswm::Status advanced = tracker.AdvanceTime(t);
    if (!advanced.ok()) {
      std::fprintf(stderr, "AdvanceTime failed: %s\n",
                   advanced.message().c_str());
      return 1;
    }
    // Bursty traffic: quiet baseline with heavy-tailed flare-ups.
    const int arrivals = rng.NextDouble() < 0.002 ? 50 : 1;
    for (int a = 0; a < arrivals; ++a) {
      const int site = static_cast<int>(rng.NextBelow(sites));
      const double bytes = std::exp(2.0 * rng.NextGaussian());
      const dswm::Status status = tracker.Observe(site, bytes, t);
      if (!status.ok()) {
        std::fprintf(stderr, "Observe failed: %s\n", status.message().c_str());
        return 1;
      }
      exact.push_back({bytes, t});
      ++items;
    }
    if (t % 6000 == 0) {
      const double truth = exact_sum(t);
      const double est = tracker.Estimate();
      const double rel = truth > 0 ? std::fabs(est - truth) / truth : 0.0;
      worst_rel_err = std::max(worst_rel_err, rel);
      std::printf("%-10lld %16.1f %16.1f %10.4f\n",
                  static_cast<long long>(t), truth, est, rel);
    }
  }

  std::printf("\nitems observed      : %ld\n", items);
  std::printf("worst relative error: %.4f (guarantee %.2f)\n", worst_rel_err,
              eps);
  std::printf("words communicated  : %ld (naive shipping: %ld)\n",
              tracker.Comm().TotalWords(), items);
  std::printf("max site space      : %ld words (window holds ~%lld items)\n",
              tracker.MaxSiteSpaceWords(),
              static_cast<long long>(items * window / 60000));
  return worst_rel_err <= eps ? 0 : 2;
}

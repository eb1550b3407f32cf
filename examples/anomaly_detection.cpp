// Sliding-window anomaly detection from a covariance sketch (the paper's
// motivating application 2, Section I; cf. Huang & Kasiviswanathan [15]).
//
// The ridge-leverage score f(A, x) = x^T (A^T A + lambda I)^{-1} x is
// expensive on the window matrix A but cheap on a tracked sketch B with
// small covariance error (analytics/anomaly_scorer.h). This example
// tracks B with PWOR-ALL over 6 sites, injects outliers, and shows that
// sketch-based scores separate them just like exact-window scores.
//
// Serving-tier flow: query results are published into a SnapshotStore as
// immutable versions; a scorer is built from a held SnapshotRef and
// shares the version's sealed eigendecomposition (computed exactly once
// at publish time) with every other consumer of the same version.

#include <cstdio>
#include <vector>

#include "analytics/anomaly_scorer.h"
#include "core/covariance_estimate.h"
#include "core/tracker_factory.h"
#include "serve/snapshot_store.h"
#include "stream/pamap_like.h"
#include "window/exact_window.h"

int main() {
  using namespace dswm;

  PamapLikeConfig data_config;
  data_config.rows = 20000;
  data_config.seed = 33;
  PamapLikeGenerator generator(data_config);
  const int d = data_config.dim;

  TrackerConfig config;
  config.dim = d;
  config.num_sites = 6;
  config.window = 4000;
  config.epsilon = 0.1;
  auto tracker_or = MakeTracker(Algorithm::kPworAll, config);
  if (!tracker_or.ok()) {
    std::fprintf(stderr, "%s\n", tracker_or.status().ToString().c_str());
    return 1;
  }
  DistributedTracker& tracker = *tracker_or.value();
  ExactWindow exact(d, config.window);

  Rng rng(101);
  std::vector<std::vector<double>> probes_normal;
  std::vector<std::vector<double>> probes_anomalous;

  int i = 0;
  Timestamp last_time = 0;
  while (auto row = generator.Next()) {
    ++i;
    const Status observed = tracker.Observe(
        static_cast<int>(rng.NextBelow(config.num_sites)), *row);
    if (!observed.ok()) {
      std::fprintf(stderr, "%s\n", observed.ToString().c_str());
      return 1;
    }
    exact.Add(*row);
    exact.Advance(row->timestamp);
    last_time = row->timestamp;

    if (i > 15000 && i % 500 == 0) {
      probes_normal.push_back(row->values);  // in-distribution point
      // An anomaly: a direction the window's activity never excites.
      std::vector<double> odd(d, 0.0);
      for (int j = 0; j < d; ++j) {
        odd[j] = (j % 2 == 0 ? 1.0 : -1.0) * (20.0 + rng.NextDouble());
      }
      probes_anomalous.push_back(std::move(odd));
    }
  }

  // Publish the tracked sketch and the exact window as snapshot versions.
  // Publication seals each estimate (gram, eigenbasis, PSD root computed
  // once); the scorers below borrow that shared cache via a held ref.
  serve::SnapshotStore sketch_store;
  serve::SnapshotStore exact_store;
  const Status published_sketch =
      sketch_store.Publish(tracker.Query(), last_time, config.window);
  const Status published_exact = exact_store.Publish(
      CovarianceEstimate::FromCovariance(exact.Covariance()), last_time,
      config.window);
  if (!published_sketch.ok() || !published_exact.ok()) {
    std::fprintf(stderr, "publish failed\n");
    return 1;
  }

  const serve::SnapshotRef sketch_ref = sketch_store.Latest();
  const serve::SnapshotRef exact_ref = exact_store.Latest();
  const auto sketch_scorer = AnomalyScorer::FromSnapshot(*sketch_ref);
  const auto exact_scorer = AnomalyScorer::FromSnapshot(*exact_ref);
  if (!sketch_scorer.ok() || !exact_scorer.ok()) {
    std::fprintf(stderr, "scorer construction failed\n");
    return 1;
  }

  auto mean_score = [](const AnomalyScorer& s,
                       const std::vector<std::vector<double>>& xs) {
    double sum = 0.0;
    for (const auto& x : xs) sum += s.Score(x.data());
    return xs.empty() ? 0.0 : sum / xs.size();
  };

  const double sk_norm = mean_score(sketch_scorer.value(), probes_normal);
  const double sk_anom = mean_score(sketch_scorer.value(), probes_anomalous);
  const double ex_norm = mean_score(exact_scorer.value(), probes_normal);
  const double ex_anom = mean_score(exact_scorer.value(), probes_anomalous);

  std::printf(
      "scores are f(.,x) = x^T (C + lambda I)^{-1} x, higher = more "
      "anomalous\n\n");
  std::printf("%-22s %14s %14s %10s\n", "scorer", "normal(mean)",
              "anomaly(mean)", "sep.ratio");
  std::printf("%-22s %14.4g %14.4g %10.1f\n", "exact window", ex_norm,
              ex_anom, ex_anom / ex_norm);
  std::printf("%-22s %14.4g %14.4g %10.1f\n", "tracked sketch", sk_norm,
              sk_anom, sk_anom / sk_norm);
  std::printf("\nsketch comm: %ld words vs naive centralization %ld words\n",
              tracker.Comm().TotalWords(),
              static_cast<long>(data_config.rows) * (d + 1));

  const bool ok = sk_anom > 5.0 * sk_norm;
  std::printf("anomalies separated by sketch scorer: %s\n",
              ok ? "YES" : "no");
  return ok ? 0 : 2;
}

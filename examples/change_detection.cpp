// Approximate-PCA change detection over a distributed sliding window
// (the paper's motivating application 1, Section I).
//
// A reference PCA basis is frozen from an early published snapshot
// version; afterwards the current window's version is compared to it
// (analytics/change_detector.h). The SYNTHETIC generator rotates its
// signal subspace between segments, so the subspace distance must spike
// at the segment boundaries -- which is what this example prints.
//
// Serving-tier flow: the tracker's query results are published into a
// SnapshotStore as immutable versions; the detector is constructed from
// the reference version and updated with each later latest version.

#include <algorithm>
#include <cstdio>

#include "analytics/change_detector.h"
#include "core/tracker_factory.h"
#include "serve/snapshot_store.h"
#include "stream/synthetic.h"

int main() {
  using namespace dswm;

  const int d = 48;

  SyntheticConfig data_config;
  data_config.rows = 30000;  // three 10k segments with rotating subspaces
  data_config.dim = d;
  data_config.seed = 21;
  SyntheticGenerator generator(data_config);

  TrackerConfig config;
  config.dim = d;
  config.num_sites = 8;
  config.window = 3000;
  config.epsilon = 0.1;
  auto tracker_or = MakeTracker(Algorithm::kDa2, config);
  if (!tracker_or.ok()) {
    std::fprintf(stderr, "%s\n", tracker_or.status().ToString().c_str());
    return 1;
  }
  DistributedTracker& tracker = *tracker_or.value();

  serve::StoreOptions store_options;
  store_options.pca_components = 8;
  serve::SnapshotStore store(store_options);

  ChangeDetectorOptions options;
  options.components = 8;
  options.calibration_updates = 3;
  StatusOr<ChangeDetector> detector = Status::FailedPrecondition("pending");

  Rng site_rng(5);
  std::printf("%-8s %-12s %-9s %s\n", "row", "distance", "change?", "signal");
  int i = 0;
  int first_flag_row = 0;
  while (auto row = generator.Next()) {
    const Status observed = tracker.Observe(
        static_cast<int>(site_rng.NextBelow(config.num_sites)), *row);
    if (!observed.ok()) {
      std::fprintf(stderr, "%s\n", observed.ToString().c_str());
      return 1;
    }
    ++i;
    if (i == 6000) {  // freeze the reference basis inside segment 1
      const Status published =
          store.Publish(tracker.Query(), row->timestamp, config.window);
      if (!published.ok()) {
        std::fprintf(stderr, "%s\n", published.ToString().c_str());
        return 1;
      }
      detector = ChangeDetector::FromSnapshot(*store.Latest(), options);
      if (!detector.ok()) {
        std::fprintf(stderr, "%s\n", detector.status().ToString().c_str());
        return 1;
      }
    }
    if (i >= 7000 && i % 1000 == 0) {
      const Status published =
          store.Publish(tracker.Query(), row->timestamp, config.window);
      if (!published.ok()) continue;
      const auto dist = detector.value().Update(*store.Latest());
      if (!dist.ok()) continue;
      const bool flagged = detector.value().change_detected();
      if (flagged && first_flag_row == 0) first_flag_row = i;
      const int bars = static_cast<int>(dist.value() * 40);
      std::printf("%-8d %-12.4f %-9s %.*s\n", i, dist.value(),
                  flagged ? "CHANGE" : "-", bars,
                  "########################################");
    }
  }

  std::printf("\nbaseline distance : %.4f\n", detector.value().baseline());
  std::printf("first change flag : row %d (segment 2 starts at row 10000)\n",
              first_flag_row);
  const bool good =
      first_flag_row > 10000 && first_flag_row <= 14000;
  std::printf("detected at the segment boundary: %s\n", good ? "YES" : "no");
  return good ? 0 : 2;
}

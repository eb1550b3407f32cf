#include "core/tracker.h"

#include <cmath>
#include <string>

namespace dswm {

Status DistributedTracker::ValidateObserve(int site, int num_sites,
                                           const TimedRow& row) {
  if (site < 0 || site >= num_sites) {
    return Status::InvalidArgument("Observe: site " + std::to_string(site) +
                                   " out of range [0, " +
                                   std::to_string(num_sites) + ")");
  }
  if (row.timestamp < clock_) {
    return Status::InvalidArgument(
        "Observe: timestamp regression (" + std::to_string(row.timestamp) +
        " < " + std::to_string(clock_) + ")");
  }
  const int d = Dim();
  if (row.values.size() != static_cast<size_t>(d)) {
    return Status::InvalidArgument(
        "Observe: row has dimension " + std::to_string(row.values.size()) +
        ", tracker expects " + std::to_string(d));
  }
  bool finite = true;
  for (const double v : row.values) finite &= std::isfinite(v);
  if (!finite) {
    return Status::InvalidArgument("Observe: row has a non-finite value");
  }
  for (const int j : row.support) {
    if (j < 0 || j >= d) {
      return Status::InvalidArgument("Observe: support index " +
                                     std::to_string(j) + " out of range [0, " +
                                     std::to_string(d) + ")");
    }
  }
  clock_ = row.timestamp;
  return Status::OK();
}

Status DistributedTracker::AdvanceTime(Timestamp t) {
  if (t < clock_) {
    return Status::InvalidArgument(
        "AdvanceTime: time precedes the clock at tick " +
        std::to_string(clock_));
  }
  clock_ = t;
  Advance(t);
  return Status::OK();
}

}  // namespace dswm

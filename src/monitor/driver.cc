#include "monitor/driver.h"

#include <string>

namespace dswm {

Status DriverOptions::Validate() const {
  if (query_points < 0) {
    return Status::InvalidArgument(
        "DriverOptions: query_points must be >= 0, got " +
        std::to_string(query_points));
  }
  if (!(warmup_fraction >= 0.0 && warmup_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "DriverOptions: warmup_fraction must be in [0, 1], got " +
        std::to_string(warmup_fraction));
  }
  return Status::OK();
}

}  // namespace dswm

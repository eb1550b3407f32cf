#include "core/centralized_tracker.h"

#include <utility>

namespace dswm {

CentralizedTracker::CentralizedTracker(const TrackerConfig& config)
    : config_(config),
      meh_(config.dim, config.epsilon, config.window),
      channel_(MakeTrackerChannel(config, 0)) {
  DSWM_CHECK(config.Validate().ok());
  channel_->SetHandler([this](net::Delivery d) {
    if (const auto* m = std::get_if<net::RowUploadMsg>(&d.msg)) {
      meh_.Insert(m->values.data(), m->timestamp);
    }
  });
}

Status CentralizedTracker::Observe(int site, const TimedRow& row) {
  DSWM_RETURN_NOT_OK(ValidateObserve(site, config_.num_sites, row));
  channel_->AdvanceTime(row.timestamp);
  net::RowUploadMsg msg;  // row + timestamp: d + 1 words
  msg.values = row.values;
  msg.timestamp = row.timestamp;
  msg.support = row.support;
  channel_->Send(net::Direction::kUp, site, std::move(msg));
  return Status::OK();
}

void CentralizedTracker::Advance(Timestamp t) {
  channel_->AdvanceTime(t);
  meh_.Advance(t);
}

CovarianceEstimate CentralizedTracker::Query() const {
  return CovarianceEstimate::FromRows(meh_.QueryRows());
}

}  // namespace dswm

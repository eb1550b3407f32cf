#include "core/sum_tracker.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"

namespace dswm {

SumTracker::SumTracker(int num_sites, Timestamp window, double eps,
                       std::unique_ptr<net::Channel> channel)
    : eps_report_(eps / 2.0), channel_(std::move(channel)) {
  DSWM_CHECK_GT(num_sites, 0);
  DSWM_CHECK_GT(eps, 0.0);
  if (channel_ == nullptr) {
    channel_ = std::make_unique<net::LoopbackChannel>(num_sites);
  }
  channel_->SetHandler([this](net::Delivery d) {
    if (const auto* msg = std::get_if<net::SumDeltaMsg>(&d.msg)) {
      ApplyDelta(msg->delta);
    }
  });
  sites_.reserve(num_sites);
  for (int j = 0; j < num_sites; ++j) {
    sites_.push_back(SiteState{ExponentialHistogram(eps / 4.0, window), 0.0});
  }
}

void SumTracker::CheckSite(int site, Timestamp t) {
  SiteState& s = sites_[site];
  const double c = s.histogram.Query(t);
  if (std::fabs(c - s.reported) > eps_report_ * c) {
    // Ship D = C - C_hat: one word. The site commits its report at send
    // time; the coordinator's sum moves when the frame is delivered.
    net::SumDeltaMsg msg;
    msg.delta = c - s.reported;
    s.reported = c;
    channel_->Send(net::Direction::kUp, site, msg);
  }
}

Status SumTracker::Observe(int site, double w, Timestamp t) {
  if (site < 0 || site >= static_cast<int>(sites_.size())) {
    return Status::InvalidArgument("SumTracker::Observe: site " +
                                   std::to_string(site) + " not in [0, " +
                                   std::to_string(sites_.size()) + ")");
  }
  if (!(w > 0.0 && std::isfinite(w))) {
    return Status::InvalidArgument(
        "SumTracker::Observe: weight is not finite and positive");
  }
  const Timestamp site_time = sites_[site].histogram.last_time();
  if (t < site_time) {
    return Status::InvalidArgument("SumTracker::Observe: time " +
                                   std::to_string(t) + " < site clock " +
                                   std::to_string(site_time));
  }
  channel_->AdvanceTime(t);
  sites_[site].histogram.Insert(w, t);
  CheckSite(site, t);
  return Status::OK();
}

Status SumTracker::AdvanceTime(Timestamp t) {
  for (const SiteState& s : sites_) {
    if (t < s.histogram.last_time()) {
      return Status::InvalidArgument("SumTracker::AdvanceTime: time " +
                                     std::to_string(t) +
                                     " precedes a site's clock");
    }
  }
  Advance(t);
  return Status::OK();
}

void SumTracker::Advance(Timestamp t) {
  channel_->AdvanceTime(t);
  for (int j = 0; j < static_cast<int>(sites_.size()); ++j) CheckSite(j, t);
}

long SumTracker::MaxSiteSpaceWords() const {
  long best = 0;
  for (const SiteState& s : sites_) {
    best = std::max(best, s.histogram.SpaceWords() + 1);
  }
  return best;
}

}  // namespace dswm

#include "core/shared_threshold_wr_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "sampling/scaled_rows.h"

namespace dswm {

SharedThresholdWrTracker::SharedThresholdWrTracker(
    const TrackerConfig& config, SamplingScheme scheme)
    : config_(config),
      scheme_(scheme),
      name_(scheme == SamplingScheme::kPriority ? "PWR-ST" : "ESWR-ST"),
      ell_(config.SampleSize()),
      tau_(LowestThreshold(scheme)),
      now_(std::numeric_limits<Timestamp>::min() / 2),
      channel_(MakeTrackerChannel(config, 0)),
      fnorm_tracker_(config.num_sites, config.window, config.epsilon / 2.0,
                     MakeTrackerChannel(config, 1)) {
  DSWM_CHECK(config.Validate().ok());
  channel_->SetHandler([this](net::Delivery d) { OnDelivery(std::move(d)); });
  sites_.reserve(config.num_sites);
  for (int j = 0; j < config.num_sites; ++j) {
    SiteState st{std::vector<std::list<Pending>>(ell_),
                 Rng(config.seed * 90007 + j)};
    sites_.push_back(std::move(st));
  }
  held_.resize(ell_);
}

// Coordinator side: a delivered (row, sampler, key) joins that sampler's
// held set.
void SharedThresholdWrTracker::OnDelivery(net::Delivery d) {
  auto* m = std::get_if<net::RowUploadMsg>(&d.msg);
  if (m == nullptr) return;
  DSWM_CHECK_GE(m->sampler, 0);
  DSWM_CHECK_LT(m->sampler, static_cast<int64_t>(held_.size()));
  auto row = std::make_shared<TimedRow>();
  row->values = std::move(m->values);
  row->timestamp = m->timestamp;
  row->support = std::move(m->support);
  const Timestamp t = row->timestamp;
  held_[static_cast<size_t>(m->sampler)].push_back(
      CoordEntryWr{std::move(row), m->key, t});
  ++total_held_;
}

void SharedThresholdWrTracker::Ship(int site, int sampler, const TimedRow& row,
                                    double key) {
  net::RowUploadMsg msg;  // row + sampler id + key + timestamp: d + 3 words
  msg.values = row.values;
  msg.timestamp = row.timestamp;
  msg.support = row.support;
  msg.has_key = true;
  msg.key = key;
  msg.has_sampler = true;
  msg.sampler = sampler;
  channel_->Send(net::Direction::kUp, site, std::move(msg));
}

void SharedThresholdWrTracker::BroadcastThreshold() {
  DSWM_OBS_COUNT("sampling.threshold_broadcasts", 1);
  net::ThresholdBroadcastMsg msg;
  msg.threshold = tau_;
  channel_->Send(net::Direction::kBroadcast, -1, msg);
}

Status SharedThresholdWrTracker::Observe(int site, const TimedRow& row) {
  DSWM_RETURN_NOT_OK(
      ValidateObserve(site, static_cast<int>(sites_.size()), row));
  Advance(row.timestamp);

  const double w = row.NormSquared();
  if (w <= 0.0) return Status::OK();
  SiteState& st = sites_[site];
  auto shared_row = std::make_shared<const TimedRow>(row);

  for (int i = 0; i < ell_; ++i) {
    const double key = DrawKey(scheme_, w, &st.rng);
    // 1-dominance pruning: queued candidates beaten by this arrival can
    // never become sampler i's top-1 before they expire.
    std::list<Pending>& q = st.queues[i];
    for (auto it = q.begin(); it != q.end();) {
      it = (it->key <= key) ? q.erase(it) : ++it;
    }
    if (key >= tau_) {
      Ship(site, i, *shared_row, key);
    } else {
      q.push_back(Pending{shared_row, key});
    }
  }
  DSWM_RETURN_NOT_OK(fnorm_tracker_.Observe(site, w, row.timestamp));
  Maintain();
  return Status::OK();
}

void SharedThresholdWrTracker::Advance(Timestamp t) {
  if (t <= now_) {
    DSWM_CHECK_EQ(t, now_);
    return;
  }
  now_ = t;
  channel_->AdvanceTime(t);
  const Timestamp cutoff = t - config_.window;
  for (SiteState& st : sites_) {
    for (std::list<Pending>& q : st.queues) {
      // Keys are decreasing in arrival order but expiry is by arrival
      // order too; the front holds the oldest entries.
      while (!q.empty() && q.front().row->timestamp <= cutoff) q.pop_front();
    }
  }
  for (std::vector<CoordEntryWr>& h : held_) {
    const auto new_end = std::remove_if(
        h.begin(), h.end(),
        [cutoff](const CoordEntryWr& e) { return e.timestamp <= cutoff; });
    total_held_ -= static_cast<long>(h.end() - new_end);
    h.erase(new_end, h.end());
  }
  fnorm_tracker_.Advance(t);
  Maintain();
}

bool SharedThresholdWrTracker::AnythingOutstanding() const {
  for (const SiteState& st : sites_) {
    for (const std::list<Pending>& q : st.queues) {
      if (!q.empty()) return true;
    }
  }
  return false;
}

void SharedThresholdWrTracker::Maintain() {
  // Raise: too much shipped material held; move tau up to the smallest
  // per-sampler best so only potential top-1 improvements ship. One
  // broadcast serves all l samplers -- the whole point of sharing.
  if (total_held_ >= 4L * ell_) {
    double min_best = std::numeric_limits<double>::infinity();
    for (const std::vector<CoordEntryWr>& h : held_) {
      double best = -std::numeric_limits<double>::infinity();
      for (const CoordEntryWr& e : h) best = std::max(best, e.key);
      min_best = std::min(min_best, best);
    }
    if (min_best > tau_ && std::isfinite(min_best)) {
      tau_ = min_best;
      BroadcastThreshold();
      // Trim held entries strictly below the new threshold except each
      // sampler's best (coordinator-local bookkeeping, no messages).
      for (std::vector<CoordEntryWr>& h : held_) {
        if (h.empty()) continue;
        auto best_it = std::max_element(
            h.begin(), h.end(), [](const CoordEntryWr& a,
                                   const CoordEntryWr& b) {
              return a.key < b.key;
            });
        const CoordEntryWr best = *best_it;
        const auto new_end = std::remove_if(
            h.begin(), h.end(), [this](const CoordEntryWr& e) {
              return e.key < tau_;
            });
        total_held_ -= static_cast<long>(h.end() - new_end);
        h.erase(new_end, h.end());
        if (h.empty()) {
          h.push_back(best);
          ++total_held_;
        }
      }
    }
  }

  // Refill: some sampler lost all held entries to expiry; halve the
  // shared threshold and collect from every site until all samplers are
  // served again (or nothing is left anywhere).
  auto starved = [this]() {
    for (const std::vector<CoordEntryWr>& h : held_) {
      if (h.empty()) return true;
    }
    return false;
  };
  while (starved() && AnythingOutstanding()) {
    DSWM_OBS_COUNT("sampling.refill_rounds", 1);
    tau_ = RelaxThreshold(scheme_, tau_);
    BroadcastThreshold();
    for (int j = 0; j < static_cast<int>(sites_.size()); ++j) {
      SiteState& st = sites_[j];
      for (int i = 0; i < ell_; ++i) {
        std::list<Pending>& q = st.queues[i];
        for (auto it = q.begin(); it != q.end();) {
          if (it->key >= tau_) {
            Ship(j, i, *it->row, it->key);
            it = q.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    if (tau_ == LowestThreshold(scheme_)) break;  // everything collected
  }
}

const CommStats& SharedThresholdWrTracker::Comm() const {
  comm_cache_ = channel_->comm();
  comm_cache_.Add(fnorm_tracker_.Comm());
  return comm_cache_;
}

std::vector<net::Channel*> SharedThresholdWrTracker::Channels() const {
  return {channel_.get(), fnorm_tracker_.channel()};
}

int SharedThresholdWrTracker::SamplersWithSample() const {
  int served = 0;
  for (const std::vector<CoordEntryWr>& h : held_) {
    if (!h.empty()) ++served;
  }
  return served;
}

CovarianceEstimate SharedThresholdWrTracker::Query() const {
  const double fnorm2 = std::max(fnorm_tracker_.Estimate(), 0.0);

  std::vector<const CoordEntryWr*> picks;
  for (const std::vector<CoordEntryWr>& h : held_) {
    const CoordEntryWr* best = nullptr;
    for (const CoordEntryWr& e : h) {
      if (best == nullptr || e.key > best->key) best = &e;
    }
    if (best != nullptr) picks.push_back(best);
  }
  const int k = static_cast<int>(picks.size());
  std::vector<const TimedRow*> picked(k);
  for (int i = 0; i < k; ++i) picked[i] = picks[i]->row.get();
  Matrix sketch_rows = MaterializeScaledRows(
      picked, config_.dim, [fnorm2, k](int /*i*/, double w) {
        return std::sqrt(fnorm2 / (static_cast<double>(k) * w));
      });
  return CovarianceEstimate::FromRows(std::move(sketch_rows));
}

long SharedThresholdWrTracker::MaxSiteSpaceWords() const {
  long best = 0;
  for (const SiteState& st : sites_) {
    long words = 0;
    for (const std::list<Pending>& q : st.queues) {
      words += static_cast<long>(q.size()) * (config_.dim + 2);
    }
    best = std::max(best, words);
  }
  return best + fnorm_tracker_.MaxSiteSpaceWords();
}

}  // namespace dswm

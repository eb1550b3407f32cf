#include "core/sampling_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "sampling/scaled_rows.h"

namespace dswm {

namespace {

std::string MakeName(SamplingScheme scheme, bool use_all) {
  std::string base =
      scheme == SamplingScheme::kPriority ? "PWOR" : "ESWOR";
  if (use_all) base += "-ALL";
  return base;
}

}  // namespace

SamplingTracker::SamplingTracker(const TrackerConfig& config,
                                 SamplingScheme scheme, bool use_all_samples,
                                 bool track_fnorm, uint64_t channel_salt)
    : config_(config),
      scheme_(scheme),
      use_all_(use_all_samples),
      ell_(config.SampleSize()),
      name_(MakeName(scheme, use_all_samples)),
      tau_(LowestThreshold(scheme)),
      now_(std::numeric_limits<Timestamp>::min() / 2),
      channel_(MakeTrackerChannel(config,
                                2 * channel_salt)) {
  DSWM_CHECK(config.Validate().ok());
  channel_->SetHandler([this](net::Delivery d) { OnDelivery(std::move(d)); });
  sites_.reserve(config.num_sites);
  for (int j = 0; j < config.num_sites; ++j) {
    sites_.push_back(SiteState{SiteSampleQueue(ell_, config.window),
                               Rng(config.seed * 1000003 + j)});
  }
  if (scheme == SamplingScheme::kEfraimidisSpirakis && track_fnorm) {
    // Track ||A_w||_F^2 within a tight relative error; its (small)
    // communication is charged to this protocol through comm().
    fnorm_tracker_ = std::make_unique<SumTracker>(
        config.num_sites, config.window, config.epsilon / 2.0,
        MakeTrackerChannel(config, 2 * channel_salt + 1));
  }
}

// Coordinator side: a delivered row enters the sample set. The control
// plane (retrieve negotiation, tau broadcasts) carries no coordinator
// state -- the simulated negotiation reads shared state synchronously --
// so those kinds are accounting-only here.
void SamplingTracker::OnDelivery(net::Delivery d) {
  if (auto* m = std::get_if<net::RowUploadMsg>(&d.msg)) {
    TimedRow row;
    row.values = std::move(m->values);
    row.timestamp = m->timestamp;
    row.support = std::move(m->support);
    s_.Insert(CoordEntry{std::move(row), m->key});
  }
}

void SamplingTracker::ShipToCoordinator(int site, TimedRow row, double key) {
  // Row + priority + timestamp: d + 2 words.
  net::RowUploadMsg msg;
  msg.values = std::move(row.values);
  msg.timestamp = row.timestamp;
  msg.support = std::move(row.support);
  msg.has_key = true;
  msg.key = key;
  channel_->Send(net::Direction::kUp, site, std::move(msg));
}

void SamplingTracker::BroadcastThreshold() {
  DSWM_OBS_COUNT("sampling.threshold_broadcasts", 1);
  net::ThresholdBroadcastMsg msg;
  msg.threshold = tau_;
  channel_->Send(net::Direction::kBroadcast, -1, msg);
}

Status SamplingTracker::Observe(int site, const TimedRow& row) {
  DSWM_RETURN_NOT_OK(
      ValidateObserve(site, static_cast<int>(sites_.size()), row));
  return ObserveChecked(site, row);
}

Status SamplingTracker::ObserveChecked(int site, const TimedRow& row) {
  Advance(row.timestamp);

  const double w = row.NormSquared();
  if (w <= 0.0) return Status::OK();  // zero rows carry no covariance mass

  SiteState& st = sites_[site];
  const double key = DrawKey(scheme_, w, &st.rng);
  const double bv = KeyBucketValue(scheme_, key);
  st.queue.NoteArrival(bv);

  if (key >= tau_) {
    ShipToCoordinator(site, row, key);
  } else {
    st.queue.Enqueue(row, key, bv);
  }
  if (fnorm_tracker_ != nullptr) {
    DSWM_RETURN_NOT_OK(fnorm_tracker_->Observe(site, w, row.timestamp));
  }
  Maintain();
  return Status::OK();
}

void SamplingTracker::Advance(Timestamp t) {
  if (t <= now_) {
    DSWM_CHECK_EQ(t, now_);  // time never goes backwards
    return;
  }
  now_ = t;
  // Flush in-flight deliveries first so late rows land before expiry runs
  // and stale ones are evicted below like any other aged sample.
  channel_->AdvanceTime(t);
  const Timestamp cutoff = t - config_.window;
  for (SiteState& st : sites_) st.queue.Expire(t);
  s_.ExpireBefore(cutoff);
  s_prime_.ExpireBefore(cutoff);
  if (fnorm_tracker_ != nullptr) fnorm_tracker_->Advance(t);
  Maintain();
}

bool SamplingTracker::AnyRowOutstanding() const {
  if (!s_prime_.empty()) return true;
  for (const SiteState& st : sites_) {
    if (!st.queue.empty()) return true;
  }
  return false;
}

void SamplingTracker::Maintain() {
  if (config_.protocol == SamplingProtocol::kSimple) {
    MaintainSimple();
  } else {
    MaintainLazy();
  }
}

// Algorithm 1: keep |S| at exactly l, re-synchronize tau on every change.
void SamplingTracker::MaintainSimple() {
  while (s_.size() > ell_) s_prime_.Insert(s_.PopMin());

  if (s_.size() < ell_ && AnyRowOutstanding()) {
    // Negotiation: the coordinator requests each site's local highest
    // priority (one request + one reply word per site).
    DSWM_OBS_COUNT("sampling.negotiations", 1);
    const double none = -std::numeric_limits<double>::infinity();
    for (int j = 0; j < config_.num_sites; ++j) {
      net::RetrieveRequestMsg req;
      req.bound = tau_;
      channel_->Send(net::Direction::kDown, j, req);
      net::RetrieveResponseMsg resp;
      resp.key = sites_[j].queue.MaxKey(none);
      channel_->Send(net::Direction::kUp, j, resp);
    }
    while (s_.size() < ell_) {
      // Locate the highest outstanding priority across S' and all sites.
      double best = s_prime_.MaxKey(none);
      int best_site = -1;
      for (int j = 0; j < config_.num_sites; ++j) {
        const double k = sites_[j].queue.MaxKey(none);
        if (k > best) {
          best = k;
          best_site = j;
        }
      }
      if (best == none) break;  // fewer than l active rows in the system
      if (best_site < 0) {
        s_.Insert(s_prime_.PopMax());
      } else {
        SiteEntry e = sites_[best_site].queue.PopMax();
        // Retrieve the row, then ask that site for its next-highest
        // priority (one request + one reply word).
        ShipToCoordinator(best_site, std::move(e.row), e.key);
        net::RetrieveRequestMsg req;
        req.bound = tau_;
        channel_->Send(net::Direction::kDown, best_site, req);
        net::RetrieveResponseMsg resp;
        resp.key = sites_[best_site].queue.MaxKey(none);
        channel_->Send(net::Direction::kUp, best_site, resp);
      }
    }
  }

  const double new_tau =
      s_.size() >= ell_ ? s_.MinKey() : LowestThreshold(scheme_);
  if (new_tau != tau_) {
    tau_ = new_tau;
    BroadcastThreshold();
  }
}

// Algorithm 2: lazy broadcast, l <= |S| <= 4l.
void SamplingTracker::MaintainLazy() {
  if (s_.size() >= 4 * ell_) {
    tau_ = s_.KthLargestKey(2 * ell_);
    BroadcastThreshold();
    for (CoordEntry& e : s_.TakeBelow(tau_)) s_prime_.Insert(std::move(e));
  }

  if (s_.size() <= ell_) {
    while (s_.size() <= 2 * ell_ && AnyRowOutstanding()) {
      DSWM_OBS_COUNT("sampling.refill_rounds", 1);
      tau_ = RelaxThreshold(scheme_, tau_);
      BroadcastThreshold();
      for (CoordEntry& e : s_prime_.TakeAtLeast(tau_)) {
        s_.Insert(std::move(e));
      }
      for (int j = 0; j < static_cast<int>(sites_.size()); ++j) {
        for (SiteEntry& e : sites_[j].queue.TakeAtLeast(tau_)) {
          ShipToCoordinator(j, std::move(e.row), e.key);
        }
      }
    }
  }
}

const CommStats& SamplingTracker::Comm() const {
  comm_cache_ = channel_->comm();
  if (fnorm_tracker_ != nullptr) comm_cache_.Add(fnorm_tracker_->Comm());
  return comm_cache_;
}

std::vector<net::Channel*> SamplingTracker::Channels() const {
  std::vector<net::Channel*> out{channel_.get()};
  if (fnorm_tracker_ != nullptr) out.push_back(fnorm_tracker_->channel());
  return out;
}

double SamplingTracker::MaxOutstandingKey() const {
  double best = -std::numeric_limits<double>::infinity();
  best = std::max(best, s_prime_.MaxKey(best));
  for (const SiteState& st : sites_) {
    best = std::max(best, st.queue.MaxKey(best));
  }
  return best;
}

std::vector<const CoordEntry*> SamplingTracker::CurrentSamples() const {
  if (use_all_) {
    std::vector<const CoordEntry*> all = s_.All();
    for (const CoordEntry* e : s_prime_.All()) all.push_back(e);
    return all;
  }
  return s_.TopK(std::min(ell_, s_.size()));
}

CovarianceEstimate SamplingTracker::Query() const {
  const std::vector<const CoordEntry*> samples = CurrentSamples();
  const int k = static_cast<int>(samples.size());
  Matrix sketch_rows(k, config_.dim);
  if (k == 0) return CovarianceEstimate::FromRows(std::move(sketch_rows));

  // When the sample happens to contain every active row (small windows,
  // or eps so tight that l exceeds the window), every inclusion
  // probability is 1 and the sketch is exact: no rescaling.
  const int held = s_.size() + s_prime_.size();
  const bool exact_mode = !AnyRowOutstanding() && k == held;

  // Priority-sampling threshold: the (k+1)-th largest priority among
  // everything the coordinator can see (Duffield et al. [26]). Rows held
  // beyond the sample provide it; otherwise the sites' send threshold is
  // the best available stand-in (all outstanding keys are below it).
  double tau_k = LowestThreshold(scheme_);
  if (!exact_mode && scheme_ == SamplingScheme::kPriority) {
    if (use_all_) {
      // ALL estimator: the union itself is the sample; its minimum key
      // caps the rescale of small-norm rows (Section IV-B discussion).
      tau_k = std::numeric_limits<double>::infinity();
      for (const CoordEntry* e : samples) tau_k = std::min(tau_k, e->key);
    } else if (held > k) {
      double best_outside = LowestThreshold(scheme_);
      double sample_min = std::numeric_limits<double>::infinity();
      for (const CoordEntry* e : samples) {
        sample_min = std::min(sample_min, e->key);
      }
      // Largest held key strictly outside the sample. The sample is the
      // top-k of the held union, so this is the (k+1)-th largest held.
      for (const CoordEntry* e : s_.All()) {
        if (e->key < sample_min) best_outside = std::max(best_outside, e->key);
      }
      for (const CoordEntry* e : s_prime_.All()) {
        if (e->key < sample_min) best_outside = std::max(best_outside, e->key);
      }
      tau_k = best_outside;
    } else {
      tau_k = tau_;
    }
  }

  double fnorm2 = 0.0;
  if (fnorm_tracker_ != nullptr) {
    fnorm2 = std::max(fnorm_tracker_->Estimate(), 0.0);
  }

  std::vector<const TimedRow*> picked(k);
  for (int i = 0; i < k; ++i) picked[i] = &samples[i]->row;
  const SamplingScheme scheme = scheme_;
  sketch_rows = MaterializeScaledRows(
      picked, config_.dim,
      // Returns the multiplier c_i so that ||c_i a_i||^2 = v_i.
      [exact_mode, scheme, tau_k, fnorm2, k](int /*i*/, double w) {
        if (exact_mode) return 1.0;
        if (scheme == SamplingScheme::kPriority) {
          // v_i = max(w_i, tau_k). (The paper's in-line formula omits the
          // square root; the unbiased B^T B estimator needs c_i^2 w_i =
          // v_i.)
          return std::sqrt(std::max(w, tau_k) / w);
        }
        return std::sqrt(fnorm2 / (static_cast<double>(k) * w));
      });
  return CovarianceEstimate::FromRows(std::move(sketch_rows));
}

long SamplingTracker::MaxSiteSpaceWords() const {
  long best = 0;
  for (const SiteState& st : sites_) {
    best = std::max(best, st.queue.SpaceWords(config_.dim));
  }
  if (fnorm_tracker_ != nullptr) best += fnorm_tracker_->MaxSiteSpaceWords();
  return best;
}

}  // namespace dswm

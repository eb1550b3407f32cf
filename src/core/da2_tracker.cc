#include "core/da2_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dswm {

namespace {

// The boundary w ticks after b, or the largest Timestamp when that lies
// past it: a boundary no clock reaches.
Timestamp BoundaryAfter(Timestamp b, Timestamp w) {
  return b > std::numeric_limits<Timestamp>::max() - w
             ? std::numeric_limits<Timestamp>::max()
             : b + w;
}

}  // namespace

Da2Tracker::Da2Tracker(const TrackerConfig& config)
    : config_(config),
      eps_threshold_(config.epsilon / 2.0),
      ell_fd_(static_cast<int>(std::ceil(2.0 / config.epsilon))),
      now_(std::numeric_limits<Timestamp>::min() / 2),
      channel_(MakeTrackerChannel(config, 0)) {
  DSWM_CHECK(config.Validate().ok());
  // Coordinator side: a delivered direction updates this site's forward
  // (flag +1) or expiring (flag -1) accumulation.
  channel_->SetHandler([this](net::Delivery d) {
    if (const auto* m = std::get_if<net::Da2DeltaMsg>(&d.msg)) {
      SiteState& st = sites_[d.site];
      if (m->flag > 0) {
        st.c_active.AddOuterProduct(m->direction.data(), 1.0);
      } else {
        st.c_expiring.AddOuterProduct(m->direction.data(), -1.0);
      }
    }
  });
  sites_.reserve(config.num_sites);
  for (int j = 0; j < config.num_sites; ++j) {
    SiteState st{
        MatrixExpHistogram(config.dim, config.epsilon / 3.0, config.window),
        IwmtProtocol(config.dim, ell_fd_),
        std::make_unique<IwmtProtocol>(config.dim, ell_fd_),
        {},
        Matrix(config.dim, config.dim),
        Matrix(config.dim, config.dim),
        /*next_boundary=*/0};
    sites_.push_back(std::move(st));
  }
}

double Da2Tracker::SiteTheta(const SiteState& st, double fallback_mass) const {
  const double mass =
      std::max(st.meh.FrobeniusSquaredEstimate(), fallback_mass);
  return std::max(eps_threshold_ * mass, 1e-300);
}

void Da2Tracker::ShipForward(int site, const std::vector<IwmtOutput>& outs) {
  for (const IwmtOutput& o : outs) {
    net::Da2DeltaMsg msg;  // (m_i, t_i, flag = +1): d + 2 words
    msg.direction = o.direction;
    msg.timestamp = now_;
    msg.flag = 1;
    channel_->Send(net::Direction::kUp, site, std::move(msg));
  }
}

void Da2Tracker::ShipBackward(int site, const std::vector<IwmtOutput>& outs) {
  for (const IwmtOutput& o : outs) {
    net::Da2DeltaMsg msg;  // (m'_i, t_i, flag = -1): d + 2 words
    msg.direction = o.direction;
    msg.timestamp = now_;
    msg.flag = -1;
    channel_->Send(net::Direction::kUp, site, std::move(msg));
  }
}

void Da2Tracker::FeedExpired(int site, SiteState* st, Timestamp t) {
  const Timestamp cutoff = t - config_.window;
  std::vector<IwmtOutput> outs;
  while (!st->q.empty() && st->q.back().timestamp <= cutoff) {
    const QEntry& e = st->q.back();
    const double w = NormSquared(e.direction.data(), config_.dim);
    if (w > 0.0) {
      st->iwmt_e->Input(e.direction.data(), SiteTheta(*st, w), &outs);
    }
    st->q.pop_back();
  }
  if (!outs.empty()) ShipBackward(site, outs);
}

void Da2Tracker::ProcessBoundary(int site, SiteState* st, Timestamp boundary) {
  ++boundaries_;
  st->meh.Advance(boundary);

  // Finish the backward side of the ending window: everything left in Q
  // has expired by now; the IWMT_e residual flushes as negative updates.
  FeedExpired(site, st, boundary);
  DSWM_CHECK(st->q.empty());
  {
    std::vector<IwmtOutput> outs;
    st->iwmt_e->Flush(&outs);
    ShipBackward(site, outs);
  }

  // Finish the forward side: flush IWMT_a so unreported mass and FD
  // shrinkage do not leak across windows.
  if (config_.da2_flush_at_boundary) {
    std::vector<IwmtOutput> outs;
    st->iwmt_a.Flush(&outs);
    ShipForward(site, outs);
  }

  // Coordinator rebase (both parties know the boundary; no messages):
  // the ending window's arrivals become the expiring window, and the
  // stale residue of the old expiring estimate is discarded.
  st->c_expiring = st->c_active;
  st->c_active.SetZero();

  // Reverse replay of the ended window (IWMT_c): read the mEH buckets
  // newest -> oldest under the growing threshold eps * (mass read so
  // far); record outputs into Q with bucket-granular timestamps.
  IwmtProtocol iwmt_c(config_.dim, ell_fd_);
  st->q.clear();
  double mass_so_far = 0.0;
  const auto& buckets = st->meh.buckets();
  std::vector<IwmtOutput> outs;
  for (auto it = buckets.rbegin(); it != buckets.rend(); ++it) {
    const Matrix rows = it->fd.RowsMatrix();
    for (int i = 0; i < rows.rows(); ++i) {
      const double w = NormSquared(rows.Row(i), config_.dim);
      if (w <= 0.0) continue;
      mass_so_far += w;
      outs.clear();
      iwmt_c.Input(rows.Row(i),
                   std::max(eps_threshold_ * mass_so_far, 1e-300), &outs);
      for (IwmtOutput& o : outs) {
        st->q.push_back(QEntry{std::move(o.direction), it->t_newest});
      }
    }
  }
  outs.clear();
  iwmt_c.Flush(&outs);
  const Timestamp oldest = buckets.empty() ? boundary : buckets.front().t_oldest;
  for (IwmtOutput& o : outs) {
    st->q.push_back(QEntry{std::move(o.direction), oldest});
  }

  // Fresh backward tracker for the new window.
  st->iwmt_e = std::make_unique<IwmtProtocol>(config_.dim, ell_fd_);
}

Status Da2Tracker::Observe(int site, const TimedRow& row) {
  DSWM_RETURN_NOT_OK(
      ValidateObserve(site, static_cast<int>(sites_.size()), row));
  Advance(row.timestamp);

  SiteState& st = sites_[site];
  const double w = row.NormSquared();
  st.meh.Insert(row.values.data(), row.timestamp);
  if (w <= 0.0) return Status::OK();
  std::vector<IwmtOutput> outs;
  st.iwmt_a.Input(row.values.data(), SiteTheta(st, w), &outs);
  ShipForward(site, outs);
  return Status::OK();
}

void Da2Tracker::Advance(Timestamp t) {
  if (initialized_ && t <= now_) {
    DSWM_CHECK_EQ(t, now_);
    return;
  }
  const Timestamp w = config_.window;
  if (!initialized_) {
    // First boundary: the smallest multiple of W that is >= max(t, W).
    const Timestamp nb = t <= w ? w : BoundaryAfter((t - 1) / w * w, w);
    for (SiteState& st : sites_) st.next_boundary = nb;
    initialized_ = true;
  }
  now_ = t;
  channel_->AdvanceTime(t);
  for (int j = 0; j < static_cast<int>(sites_.size()); ++j) {
    SiteState& st = sites_[j];
    // No row arrives within one call, so two boundaries leave the site's
    // mEH, Q and coordinator matrices empty, and every later boundary
    // before t is a no-op: those are counted and jumped over.
    for (int k = 0; k < 2 && st.next_boundary < t; ++k) {
      ProcessBoundary(j, &st, st.next_boundary);
      st.next_boundary = BoundaryAfter(st.next_boundary, w);
    }
    if (st.next_boundary < t) {
      const Timestamp skipped = (t - 1 - st.next_boundary) / w;
      boundaries_ += skipped + 1;
      st.next_boundary = BoundaryAfter(st.next_boundary + skipped * w, w);
    }
    FeedExpired(j, &st, t);
    st.meh.Advance(t);
  }
}

CovarianceEstimate Da2Tracker::Query() const {
  Matrix covariance(config_.dim, config_.dim);
  for (const SiteState& st : sites_) {
    covariance.AddScaled(st.c_active, 1.0);
    covariance.AddScaled(st.c_expiring, 1.0);
  }
  return CovarianceEstimate::FromCovariance(std::move(covariance));
}

long Da2Tracker::MaxSiteSpaceWords() const {
  long best = 0;
  for (const SiteState& st : sites_) {
    long words = st.meh.SpaceWords() + st.iwmt_a.SpaceWords() +
                 st.iwmt_e->SpaceWords() +
                 static_cast<long>(st.q.size()) * (config_.dim + 1);
    best = std::max(best, words);
  }
  return best;
}

}  // namespace dswm

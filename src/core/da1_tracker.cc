#include "core/da1_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/spectral_norm.h"
#include "linalg/symmetric_eigen.h"

namespace dswm {

Da1Tracker::Da1Tracker(const TrackerConfig& config)
    : config_(config),
      eps_threshold_(config.epsilon / 2.0),
      coordinator_c_hat_(config.dim, config.dim),
      now_(std::numeric_limits<Timestamp>::min() / 2),
      channel_(MakeTrackerChannel(config, 0)) {
  DSWM_CHECK(config.Validate().ok());
  // Coordinator side: delivered eigenpairs rank-1-update C_hat. The site
  // side commits its own copy at send time; under loss the two diverge by
  // exactly the undelivered pairs.
  channel_->SetHandler([this](net::Delivery d) {
    if (const auto* m = std::get_if<net::EigenpairMsg>(&d.msg)) {
      coordinator_c_hat_.AddOuterProduct(m->vector.data(), m->lambda);
    }
  });
  sites_.reserve(config.num_sites);
  for (int j = 0; j < config.num_sites; ++j) {
    SiteState st{
        MatrixExpHistogram(config.dim, config.epsilon / 3.0, config.window),
        Matrix(config.dim, config.dim),
        Matrix(config.dim, config.dim),
        /*last_gap_norm=*/0.0,
        /*mass_since_check=*/0.0,
        /*next_rebuild=*/config.window,
        /*warm=*/{}};
    sites_.push_back(std::move(st));
  }
}

void Da1Tracker::NoteExpirations(SiteState* st, Timestamp t) {
  std::vector<MatrixExpHistogram::Bucket> dropped;
  st->meh.Advance(t, &dropped);
  for (const MatrixExpHistogram::Bucket& b : dropped) {
    const Matrix rows = b.fd.RowsMatrix();
    for (int i = 0; i < rows.rows(); ++i) {
      st->c.AddOuterProduct(rows.Row(i), -1.0);
    }
    st->mass_since_check += b.mass;
  }
  if (t >= st->next_rebuild) {
    // Wipe the FD-shrinkage drift accumulated by bucket-granular
    // subtraction: re-derive C from the histogram (once per window).
    st->c = st->meh.QueryCovariance();
    st->next_rebuild = (t / config_.window + 1) * config_.window;
  }
}

void Da1Tracker::MaybeReport(int site, SiteState* st, Timestamp /*t*/) {
  if (st->mass_since_check <= 0.0) return;  // D unchanged since last check

  const double fnorm2 = st->meh.FrobeniusSquaredEstimate();
  const double threshold = eps_threshold_ * fnorm2;
  // ||D|| grows by at most the arrived mass plus the dropped-bucket mass
  // (each row's outer product has spectral norm equal to its squared
  // norm), both of which are accumulated in mass_since_check.
  if (config_.da1_lazy_norm_check &&
      st->last_gap_norm + st->mass_since_check < threshold) {
    return;
  }

  ++norm_checks_;
  const int d = config_.dim;
  // D = C - C_hat, filled into the tracker's scratch rather than a fresh
  // d x d matrix per check: the first check allocates it, later ones reuse
  // its storage.
  gap_ = st->c;
  gap_.AddScaled(st->c_hat, -1.0);
  const Matrix& gap = gap_;
  const double gap_norm = SpectralNormSymWarm(
      [&gap](const double* x, double* y) { MatVec(gap, x, y); }, d,
      &st->warm);

  // Report early (at 3/4 of the threshold) so every exact check buys at
  // least threshold/4 of slack before the next one can trigger; reporting
  // more often than Algorithm 4's letter only lowers the error.
  if (gap_norm > 0.75 * threshold && gap_norm > 0.0) {
    ++decompositions_;
    const EigenResult eig = SymmetricEigen(gap);
    // Ship every significant eigenpair; half the trigger threshold so the
    // residual drops well below it (avoids re-trigger thrash).
    const double send_cut = std::max(threshold / 2.0, 1e-12 * gap_norm);
    double residual = 0.0;
    for (int i = 0; i < d; ++i) {
      const double lambda = eig.values[i];
      if (std::fabs(lambda) >= send_cut) {
        // Ship (lambda_i, v_i): d + 1 words. The site's view of the
        // coordinator updates here; the coordinator's C_hat updates on
        // delivery.
        st->c_hat.AddOuterProduct(eig.vectors.Row(i), lambda);
        net::EigenpairMsg msg;
        msg.lambda = lambda;
        msg.vector.assign(eig.vectors.Row(i), eig.vectors.Row(i) + d);
        channel_->Send(net::Direction::kUp, site, std::move(msg));
      } else {
        residual = std::max(residual, std::fabs(lambda));
      }
    }
    st->last_gap_norm = residual;
  } else {
    st->last_gap_norm = gap_norm;
  }
  st->mass_since_check = 0.0;
}

Status Da1Tracker::Observe(int site, const TimedRow& row) {
  DSWM_RETURN_NOT_OK(
      ValidateObserve(site, static_cast<int>(sites_.size()), row));
  Advance(row.timestamp);

  SiteState& st = sites_[site];
  st.meh.Insert(row.values.data(), row.timestamp);
  st.c.AddOuterProduct(row.values.data(), 1.0);
  st.mass_since_check += row.NormSquared();
  MaybeReport(site, &st, row.timestamp);
  return Status::OK();
}

void Da1Tracker::Advance(Timestamp t) {
  if (t <= now_) {
    DSWM_CHECK_EQ(t, now_);
    return;
  }
  now_ = t;
  channel_->AdvanceTime(t);
  for (int j = 0; j < static_cast<int>(sites_.size()); ++j) {
    NoteExpirations(&sites_[j], t);
    MaybeReport(j, &sites_[j], t);
  }
}

CovarianceEstimate Da1Tracker::Query() const {
  // The copy is the snapshot semantics: the estimate must not alias the
  // live coordinator state.
  return CovarianceEstimate::FromCovariance(Matrix(coordinator_c_hat_));
}

long Da1Tracker::MaxSiteSpaceWords() const {
  long best = 0;
  const long d2 = static_cast<long>(config_.dim) * config_.dim;
  for (const SiteState& st : sites_) {
    best = std::max(best, st.meh.SpaceWords() + 2 * d2 + config_.dim);
  }
  return best;
}

}  // namespace dswm

#include "core/da1_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "linalg/spectral_norm.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"

namespace dswm {

namespace {

// The Krylov path (DESIGN.md item 4). A Lanczos run takes at most
// kMaxSteps steps. The norm check reads the run's extreme Ritz values
// after every step and stops once a step changed the top |theta| by at
// most kCheckTol relative, after at least kMinCheckSteps steps: the rule
// of the power iteration it replaced. A Ritz pair above the cut is ready
// to ship once its residual is at most kShipTol * ||D||; solving T_k for
// all residuals costs O(k^2), so the extension solves it after every step
// while k < kSolveEveryStep and after every further quarter of the run's
// length beyond.
constexpr int kMaxSteps = 64;
constexpr int kMinCheckSteps = 3;
constexpr double kCheckTol = 1e-6;
constexpr double kShipTol = 1e-8;
constexpr int kSolveEveryStep = 16;
// Every run starts from the site's warm vector (seeded before its first
// check) plus the same small dash of randomness, so a warm vector stuck in
// an invariant subspace of a changed D can escape.
constexpr uint64_t kWarmSeed = 0xa11ce;
constexpr uint64_t kDashSeed = 0xbee5 + 60;
constexpr double kDash = 1e-3;

}  // namespace

Da1Tracker::Da1Tracker(const TrackerConfig& config)
    : config_(config),
      eps_threshold_(config.epsilon / 2.0),
      coordinator_c_hat_(config.dim, config.dim),
      apply_gap_([this](const double* x, double* y) { MatVec(gap_, x, y); }),
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
  DSWM_OBS_COUNT("core.da1.norm_checks", 1);
  // D = C - C_hat, filled into the tracker's scratch rather than a fresh
  // d x d matrix per check: the first check allocates it, later ones reuse
  // its storage.
  gap_ = st->c;
  gap_.AddScaled(st->c_hat, -1.0);
  const double gap_norm = CheckNorm(st->warm);

  // Report early (at 3/4 of the threshold) so every check that reports
  // buys at least threshold/4 of slack before the next one can trigger;
  // reporting more often than Algorithm 4's letter only lowers the error.
  if (gap_norm > 0.75 * threshold && gap_norm > 0.0) {
    ++decompositions_;
    DSWM_OBS_COUNT("core.da1.decompositions", 1);
    // Ship every significant eigenpair; half the trigger threshold so the
    // residual drops well below it (avoids re-trigger thrash).
    const double send_cut = std::max(threshold / 2.0, 1e-12 * gap_norm);
    if (!ShipRitzPairs(site, st, send_cut)) {
      ++fallbacks_;
      DSWM_OBS_COUNT("core.da1.fallbacks", 1);
      ShipEigenpairs(site, st, send_cut);
    }
  } else {
    st->last_gap_norm = gap_norm;
    if (!std::isnan(gap_norm)) KeepTopRitzVector(st);
  }
  st->mass_since_check = 0.0;
}

// One Lanczos step on gap_.
bool Da1Tracker::StepRun() {
  if (!lanczos_.Step(apply_gap_)) return false;
  DSWM_OBS_COUNT("core.da1.lanczos_steps", 1);
  return true;
}

// The norm check: a Lanczos run on gap_ from `warm` plus the dash, stopped
// once its top |theta| settles. Returns that |theta|, a lower bound on
// ||D|| (NaN for a non-finite D).
double Da1Tracker::CheckNorm(const std::vector<double>& warm) {
  const int d = config_.dim;
  if (dash_.empty()) {
    Rng rng(kDashSeed);
    dash_.resize(d);
    for (double& v : dash_) v = kDash * rng.NextGaussian();
  }
  start_ = warm;
  if (static_cast<int>(start_.size()) != d ||
      !(NormSquared(start_.data(), d) > 0.0)) {
    Rng rng(kWarmSeed);
    start_.resize(d);
    for (double& v : start_) v = rng.NextGaussian();
  }
  Scale(start_.data(), d, 1.0 / std::sqrt(NormSquared(start_.data(), d)));
  for (int i = 0; i < d; ++i) start_[i] += dash_[i];
  lanczos_.Start(start_.data(), d, kMaxSteps);
  double top = 0.0;
  while (StepRun()) {
    const double prev = top;
    top = std::max(lanczos_.max_ritz_value(), -lanczos_.min_ritz_value());
    if (lanczos_.steps() >= kMinCheckSteps &&
        std::fabs(top - prev) <= kCheckTol * top) {
      break;
    }
  }
  return top;
}

// True when every Ritz pair with |theta| >= send_cut has a residual of at
// most kShipTol * ||D||.
bool Da1Tracker::RitzPairsConverged(double send_cut) const {
  const std::vector<double>& theta = lanczos_.ritz_values();
  const std::vector<double>& residual = lanczos_.residuals();
  const double tol = kShipTol * std::fabs(theta[lanczos_.TopIndex()]);
  for (size_t i = 0; i < theta.size(); ++i) {
    if (std::fabs(theta[i]) >= send_cut && residual[i] > tol) return false;
  }
  return true;
}

// The next check starts from the current run's top Ritz vector.
void Da1Tracker::KeepTopRitzVector(SiteState* st) {
  st->warm.resize(config_.dim);
  lanczos_.TopRitzVector(st->warm.data());
}

// Extends the norm check's run until every Ritz pair with |theta| >=
// send_cut has converged, then ships those pairs if CertifyNormBelow
// proves ||D - sum shipped|| < send_cut, so no eigenvalue above the cut
// was missed. Returns false, having shipped nothing, when the step cap
// comes first or the certificate fails; gap_ then no longer holds D.
bool Da1Tracker::ShipRitzPairs(int site, SiteState* st, double send_cut) {
  if (!lanczos_.SolveRitz()) return false;
  while (!RitzPairsConverged(send_cut)) {
    const int k = lanczos_.steps();
    const int next = k < kSolveEveryStep ? k + 1 : k + k / 4;
    bool stepped = false;
    while (lanczos_.steps() < next && StepRun()) stepped = true;
    if (!stepped || !lanczos_.SolveRitz()) return false;
  }

  const int d = config_.dim;
  const std::vector<double>& theta = lanczos_.ritz_values();
  const int k = static_cast<int>(theta.size());
  ritz_.resize(static_cast<size_t>(k) * d);
  int shipped = 0;
  int top_rest = -1;
  for (int i = 0; i < k; ++i) {
    if (std::fabs(theta[i]) >= send_cut) {
      double* y = ritz_.data() + static_cast<size_t>(shipped++) * d;
      lanczos_.RitzVector(i, y);
      gap_.AddOuterProduct(y, -theta[i]);
    } else if (top_rest < 0 ||
               std::fabs(theta[i]) > std::fabs(theta[top_rest])) {
      top_rest = i;
    }
  }
  if (!CertifyNormBelow(gap_, send_cut)) return false;

  const double* y = ritz_.data();
  for (int i = 0; i < k; ++i) {
    if (std::fabs(theta[i]) >= send_cut) {
      Send(site, st, theta[i], y);
      y += d;
    }
  }
  // The lazy check's next bound starts from a norm check of what is left,
  // D - sum shipped, run from the top Ritz vector that stayed behind.
  if (top_rest >= 0) {
    st->warm.resize(d);
    lanczos_.RitzVector(top_rest, st->warm.data());
  }
  st->last_gap_norm = CheckNorm(st->warm);
  if (!std::isnan(st->last_gap_norm)) KeepTopRitzVector(st);
  return true;
}

// The exact path: decompose D in full and ship every eigenpair with
// |lambda| >= send_cut. The largest |lambda| left behind is then the exact
// ||D|| for the lazy check, and its eigenvector the next warm vector.
void Da1Tracker::ShipEigenpairs(int site, SiteState* st, double send_cut) {
  const int d = config_.dim;
  gap_ = st->c;
  gap_.AddScaled(st->c_hat, -1.0);
  const EigenResult eig = SymmetricEigen(gap_);
  double residual = 0.0;
  int top_rest = -1;
  for (int i = 0; i < d; ++i) {
    const double lambda = eig.values[i];
    if (std::fabs(lambda) >= send_cut) {
      Send(site, st, lambda, eig.vectors.Row(i));
    } else if (std::fabs(lambda) > residual) {
      residual = std::fabs(lambda);
      top_rest = i;
    }
  }
  st->last_gap_norm = residual;
  if (top_rest >= 0) {
    st->warm.assign(eig.vectors.Row(top_rest), eig.vectors.Row(top_rest) + d);
  }
}

// Ships (lambda, v): d + 1 words. The site's view of the coordinator
// updates here; the coordinator's C_hat updates on delivery.
void Da1Tracker::Send(int site, SiteState* st, double lambda, const double* v) {
  st->c_hat.AddOuterProduct(v, lambda);
  net::EigenpairMsg msg;
  msg.lambda = lambda;
  msg.vector.assign(v, v + config_.dim);
  channel_->Send(net::Direction::kUp, site, std::move(msg));
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

#include "linalg/lanczos.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>

#include "linalg/symmetric_eigen.h"

namespace dswm {

namespace {

// A step breaks down when its new direction is this small against ||T_k||:
// rounding, not a Krylov direction.
constexpr double kBreakdown = 1e-13;
// A Gram-Schmidt pass that leaves less than this share of w's norm lost
// most of w to cancellation, and runs once more (the DGKS criterion).
constexpr double kRepeatPass = 0.7071067811865476;

// The pivots q_i of the LDL^T factorization of x I - M, for M the
// tridiagonal with diagonal sign * alpha and off-diagonal beta (its
// eigenvalues are sign times those of T). Stops at the first pivot that is
// not positive and returns its index, n if there is none; *f is the last
// pivot computed and *df its derivative in x.
int Pivots(const double* alpha, const double* beta, int n, double sign,
           double x, double* f, double* df) {
  double q = x - sign * alpha[0];
  double dq = 1.0;
  for (int i = 1; i < n; ++i) {
    if (!(q > 0.0)) {
      *f = q;
      *df = dq;
      return i - 1;
    }
    const double inv = 1.0 / q;
    const double t = beta[i - 1] * beta[i - 1] * inv;
    dq = 1.0 + t * dq * inv;
    q = x - sign * alpha[i] - t;
  }
  *f = q;
  *df = dq;
  return n;
}

// The largest eigenvalue of that M, of order n >= 2, given `pole`, the
// largest eigenvalue of its leading block of order n - 1. On (pole, inf)
// the last pivot f(x) = det(x I - M) / det(x I - M_{n-1}) rises from -inf
// to +inf through exactly that eigenvalue. Each iterate fits the model
// x - c - C / (x - pole) to f and f' and steps to the model's root; a
// bisection of the bracket catches a step that leaves it, and an iterate
// with a non-positive leading pivot (below the true pole, by rounding).
// Weyl's theorem gives the bracket's top: the eigenvalue exceeds the
// larger of pole and the new diagonal entry by at most the new
// off-diagonal entry.
double LargestEigenvalue(const double* alpha, const double* beta, int n,
                         double sign, double pole) {
  double lo = pole;
  double hi = std::max(pole, sign * alpha[n - 1]) + std::fabs(beta[n - 2]);
  double x = hi;
  for (int it = 0; it < 100 && lo < hi; ++it) {
    double f = 0.0;
    double df = 0.0;
    double next = 0.5 * (lo + hi);
    if (Pivots(alpha, beta, n, sign, x, &f, &df) < n) {
      lo = x;
    } else {
      if (f == 0.0) return x;
      (f > 0.0 ? hi : lo) = x;
      const double u = x - pole;
      const double big_c = (df - 1.0) * u * u;
      const double c = u - f - (df - 1.0) * u;  // the model's c - pole
      const double root = std::sqrt(c * c + 4.0 * big_c);
      next = pole + (c >= 0.0 ? 0.5 * (c + root) : 2.0 * big_c / (root - c));
      if (std::fabs(next - x) <= 2.0 * DBL_EPSILON * std::fabs(x)) return next;
    }
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - x) <= 2.0 * DBL_EPSILON * std::fabs(x)) return next;
    x = next;
  }
  return x;
}

}  // namespace

void Lanczos::Start(const double* start, int d, int max_steps) {
  DSWM_CHECK_GT(d, 0);
  DSWM_CHECK_GT(max_steps, 0);
  max_steps = std::min(max_steps, d);
  if (d != d_ || max_steps > basis_.rows()) {
    basis_ = Matrix(max_steps, d);
    alpha_.assign(max_steps, 0.0);
    beta_.assign(max_steps, 0.0);
    coef_.assign(max_steps, 0.0);
    last_ = Matrix(max_steps, 1);
    w_.assign(d, 0.0);
  }
  d_ = d;
  max_steps_ = max_steps;
  steps_ = 0;
  broke_down_ = false;
  t_norm_ = 0.0;
  values_.clear();
  residuals_.clear();
  vectors_ready_ = false;
  const double norm = std::sqrt(NormSquared(start, d));
  DSWM_CHECK(norm > 0.0);
  double* q0 = basis_.Row(0);
  for (int i = 0; i < d; ++i) q0[i] = start[i] / norm;
}

bool Lanczos::Step(const SymmetricApplyFn& apply) {
  if (broke_down_ || steps_ == max_steps_) return false;
  const int k = steps_;
  const double* q = basis_.Row(k);
  double* w = w_.data();
  apply(q, w);
  const double alpha = Dot(q, w, d_);
  Axpy(-alpha, q, w, d_);
  if (k > 0) Axpy(-beta_[k - 1], basis_.Row(k - 1), w, d_);
  double beta = std::sqrt(NormSquared(w, d_));
  for (int pass = 0; pass < 2; ++pass) {
    const double before = beta;
    Orthogonalize(w);
    beta = std::sqrt(NormSquared(w, d_));
    if (beta > kRepeatPass * before) break;
  }
  alpha_[k] = alpha;
  beta_[k] = beta;
  t_norm_ = std::max(t_norm_, std::fabs(alpha) + (k > 0 ? beta_[k - 1] : 0.0));
  steps_ = k + 1;
  if (k == 0) {
    max_ritz_ = alpha;
    min_ritz_ = alpha;
  } else {
    max_ritz_ =
        LargestEigenvalue(alpha_.data(), beta_.data(), steps_, 1.0, max_ritz_);
    min_ritz_ = -LargestEigenvalue(alpha_.data(), beta_.data(), steps_, -1.0,
                                   -min_ritz_);
  }
  if (beta <= kBreakdown * t_norm_) {
    broke_down_ = true;
  } else if (steps_ < max_steps_) {
    double* next = basis_.Row(steps_);
    for (int i = 0; i < d_; ++i) next[i] = w[i] / beta;
  }
  return true;
}

// One classical Gram-Schmidt pass of w against q_0 .. q_k. The projections
// run four basis vectors at a time, so four sum chains are in flight.
void Lanczos::Orthogonalize(double* w) {
  const int n = steps_ + 1;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* q0 = basis_.Row(i);
    const double* q1 = basis_.Row(i + 1);
    const double* q2 = basis_.Row(i + 2);
    const double* q3 = basis_.Row(i + 3);
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (int j = 0; j < d_; ++j) {
      s0 += q0[j] * w[j];
      s1 += q1[j] * w[j];
      s2 += q2[j] * w[j];
      s3 += q3[j] * w[j];
    }
    coef_[i] = s0;
    coef_[i + 1] = s1;
    coef_[i + 2] = s2;
    coef_[i + 3] = s3;
  }
  for (; i < n; ++i) coef_[i] = Dot(basis_.Row(i), w, d_);
  for (i = 0; i < n; ++i) Axpy(-coef_[i], basis_.Row(i), w, d_);
}

void Lanczos::LoadTridiagonal() {
  const int k = steps_;
  diag_.assign(alpha_.begin(), alpha_.begin() + k);
  sub_.assign(k, 0.0);
  for (int i = 1; i < k; ++i) sub_[i] = beta_[i - 1];
}

bool Lanczos::SolveRitz() {
  const int k = steps_;
  DSWM_CHECK_GT(k, 0);
  vectors_ready_ = false;
  LoadTridiagonal();
  for (int i = 0; i < k; ++i) last_(i, 0) = 0.0;
  last_(k - 1, 0) = 1.0;
  if (TridiagonalQL(&diag_, &sub_, &last_) < 0) return false;
  order_.resize(k);
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(),
            [this](int a, int b) { return diag_[a] > diag_[b]; });
  values_.resize(k);
  residuals_.resize(k);
  for (int i = 0; i < k; ++i) {
    values_[i] = diag_[order_[i]];
    residuals_[i] = beta_[k - 1] * std::fabs(last_(order_[i], 0));
  }
  return true;
}

int Lanczos::TopIndex() const {
  DSWM_CHECK(!values_.empty());
  // Values decrease, so the largest magnitude sits at one end.
  return std::fabs(values_.back()) > std::fabs(values_.front())
             ? static_cast<int>(values_.size()) - 1
             : 0;
}

// For the largest eigenvalue theta of M (sign T as in Pivots), theta I - M
// factors with positive pivots q_0 .. q_{k-2} and a zero last one, so the
// eigenvector solves L^T s = e_k: s_{k-1} = 1 and s_i = sign beta_i
// s_{i+1} / q_i, products and quotients only, nothing that cancels.
void Lanczos::TopRitzVector(double* y) {
  const int k = steps_;
  DSWM_CHECK_GT(k, 0);
  const bool top_max = std::fabs(max_ritz_) >= std::fabs(min_ritz_);
  const double sign = top_max ? 1.0 : -1.0;
  const double theta = sign * (top_max ? max_ritz_ : min_ritz_);
  // A pivot lost to rounding (theta also an eigenvalue of a leading
  // block) is taken at rounding level.
  const double floor = DBL_EPSILON * t_norm_ + DBL_MIN;
  std::vector<double>& pivot = sub_;
  std::vector<double>& s = diag_;
  pivot.resize(k);
  s.resize(k);
  double q = theta - sign * alpha_[0];
  for (int i = 0; i + 1 < k; ++i) {
    pivot[i] = std::max(q, floor);
    q = theta - sign * alpha_[i + 1] - beta_[i] * beta_[i] / pivot[i];
  }
  s[k - 1] = 1.0;
  double norm2 = 1.0;
  for (int i = k - 2; i >= 0; --i) {
    s[i] = sign * beta_[i] * s[i + 1] / pivot[i];
    norm2 += s[i] * s[i];
  }
  const double scale = 1.0 / std::sqrt(norm2);
  std::fill(y, y + d_, 0.0);
  for (int j = 0; j < k; ++j) Axpy(scale * s[j], basis_.Row(j), y, d_);
}

void Lanczos::RitzVector(int i, double* y) {
  const int k = steps_;
  DSWM_CHECK(i >= 0 && i < static_cast<int>(values_.size()));
  if (!vectors_ready_) {
    // The same QL arithmetic on the same T_k as SolveRitz, so the
    // eigenvalues and their order repeat exactly.
    LoadTridiagonal();
    vectors_ = Matrix::Identity(k);
    DSWM_CHECK(TridiagonalQL(&diag_, &sub_, &vectors_) >= 0);
    vectors_ready_ = true;
  }
  const double* s = vectors_.Row(order_[i]);
  std::fill(y, y + d_, 0.0);
  for (int j = 0; j < k; ++j) Axpy(s[j], basis_.Row(j), y, d_);
}

}  // namespace dswm

#include "core/iwmt.h"

#include <algorithm>
#include <cmath>

#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"

namespace dswm {

namespace {

// Safety margins of the skip tests. Both err toward decomposing: a skip
// needs the factor's top sigma^2 <= (1 - kTopMargin) theta and a Cholesky
// of the Schur complement minus kSchurMargin I. They sit ~10^4 above the
// rounding they absorb (see DESIGN.md item 5); an input inside them only
// pays the decomposition, which then decides exactly.
constexpr double kTopMargin = 1e-4;
constexpr double kSchurMargin = 1e-6;

}  // namespace

IwmtProtocol::IwmtProtocol(int d, int ell) : d_(d), residual_(d, ell) {
  DSWM_CHECK_GT(d, 0);
}

void IwmtProtocol::Input(const double* row, double theta,
                         std::vector<IwmtOutput>* out) {
  DSWM_CHECK_GT(theta, 0.0);
  const int before = residual_.row_count();
  residual_.Append(row);
  // The count grows by one unless an FD shrink ran first, which rewrote
  // every earlier row.
  if (residual_.row_count() != before + 1) {
    FactorShrunkRows(residual_.row_count() - 1);
  }
  mass_since_check_ += NormSquared(row, d_);
  // Free prefilter: the top eigenvalue grows by at most the appended mass.
  if (last_top_ + mass_since_check_ < (1.0 - kTopMargin) * theta) return;
  if (CertifiedBelow(theta)) {
    DSWM_OBS_COUNT("core.iwmt.certified_skips", 1);
    return;
  }
  Decompose(theta, out);
}

long IwmtProtocol::SpaceWords() const {
  const long r = rank_;
  const long m = projected_;
  return residual_.SpaceWords() + r * (d_ + 1) + m * r + m * (m + 1) / 2;
}

void IwmtProtocol::AllocateFactor() {
  if (!sigma2_.empty()) return;
  const int max_rows = 2 * residual_.ell();
  const int max_rank = std::min(max_rows, d_);
  basis_ = Matrix(max_rank, d_);
  sigma2_.assign(max_rank, 0.0);
  weight_.assign(max_rank, 0.0);
  proj_ = Matrix(max_rows, max_rank);
  scaled_ = Matrix(max_rows, max_rank);
  gram_ = Matrix(max_rows, max_rows);
  chol_ = Matrix(max_rows, max_rows);
}

void IwmtProtocol::FactorShrunkRows(int rows) {
  AllocateFactor();
  rank_ = 0;
  if (residual_.ell() >= d_) {
    // A lossless shrink leaves a triangular factor, not orthogonal rows:
    // decompose their d x d Gram.
    DSWM_OBS_COUNT("core.iwmt.shrink_eigensolves", 1);
    const EigenResult eig =
        SymmetricEigen(GramTransposePrefix(residual_.RowsMatrix(), rows));
    for (int k = 0; k < d_; ++k) {
      if (eig.values[k] <= 0.0) continue;
      basis_.SetRow(rank_, eig.vectors.Row(k));
      sigma2_[rank_++] = eig.values[k];
    }
    Rebase(rows);
    return;
  }
  // A lossy shrink leaves orthogonal rows sigma_i v_i.
  for (int i = 0; i < rows; ++i) {
    const double* src = residual_.Row(i);
    const double s2 = NormSquared(src, d_);
    if (s2 <= 0.0) continue;
    double* v = basis_.Row(rank_);
    const double inv = 1.0 / std::sqrt(s2);
    for (int j = 0; j < d_; ++j) v[j] = inv * src[j];
    sigma2_[rank_++] = s2;
  }
  Rebase(rows);
}

void IwmtProtocol::Rebase(int rows) {
  base_rows_ = rows;
  projected_ = 0;
  chol_rows_ = 0;
  last_top_ = 0.0;
  for (int k = 0; k < rank_; ++k) last_top_ = std::max(last_top_, sigma2_[k]);
  mass_since_check_ = 0.0;
}

bool IwmtProtocol::CertifiedBelow(double theta) {
  if (last_top_ > (1.0 - kTopMargin) * theta) return false;
  AllocateFactor();
  const int m = residual_.row_count() - base_rows_;
  for (; projected_ < m; ++projected_) {
    const double* f = residual_.Row(base_rows_ + projected_);
    double* z = proj_.Row(projected_);
    for (int k = 0; k < rank_; ++k) z[k] = Dot(basis_.Row(k), f, d_);
    double* g = gram_.Row(projected_);
    for (int b = 0; b <= projected_; ++b) {
      g[b] = Dot(residual_.Row(base_rows_ + b), f, d_);
    }
  }
  // The tested matrix grows with theta, so a factor that passed at
  // chol_theta_ certifies every theta above it: extend it by the new rows.
  // A failure at chol_theta_ itself is the full test's own failure, since
  // a refactor would redo the same arithmetic.
  if (chol_rows_ > 0 && theta >= chol_theta_) {
    if (ExtendCholesky(chol_rows_, m)) return true;
    if (theta == chol_theta_) return false;
  }
  chol_theta_ = theta;
  for (int k = 0; k < rank_; ++k) {
    weight_[k] = std::sqrt(sigma2_[k] / (theta - sigma2_[k]));
  }
  return ExtendCholesky(0, m);
}

bool IwmtProtocol::ExtendCholesky(int from, int m) {
  DSWM_OBS_COUNT("core.iwmt.cholesky_rows", m - from);
  // F M^-1 F^T = (G + Z D Z^T) / theta with D = sigma^2 / (theta -
  // sigma^2); the Cholesky runs on theta * ((1 - margin) I - F M^-1 F^T),
  // row by row, so an early row that fails costs little.
  const double theta = chol_theta_;
  for (int i = from; i < m; ++i) {
    const double* z = proj_.Row(i);
    double* zs = scaled_.Row(i);
    for (int k = 0; k < rank_; ++k) zs[k] = z[k] * weight_[k];
    double* li = chol_.Row(i);
    for (int j = 0; j <= i; ++j) {
      const double s = (i == j ? (1.0 - kSchurMargin) * theta : 0.0) -
                       gram_(i, j) - Dot(zs, scaled_.Row(j), rank_) -
                       Dot(li, chol_.Row(j), j);
      if (j < i) {
        li[j] = s / chol_(j, j);
      } else if (s > 0.0) {
        li[i] = std::sqrt(s);
      } else {
        return false;  // also rejects NaN
      }
    }
  }
  chol_rows_ = m;
  return true;
}

void IwmtProtocol::Decompose(double theta, std::vector<IwmtOutput>* out) {
  DSWM_OBS_COUNT("core.iwmt.decompositions", 1);
  const RightSvdResult svd = RightSvd(residual_.RowsMatrix());
  AllocateFactor();

  // The exact criterion: emit only once the top sigma^2 reached theta, then
  // every direction with sigma^2 >= theta/2, and rebuild the residual from
  // the rest (its spectral norm is then < theta/2). Otherwise the rows stay
  // as they are and the decomposition becomes the factor.
  const bool emit =
      !svd.sigma_squared.empty() && svd.sigma_squared[0] >= theta;
  if (emit) residual_.Reset();
  rank_ = 0;
  std::vector<double> scaled(d_);
  for (size_t i = 0; i < svd.sigma_squared.size(); ++i) {
    const double s2 = svd.sigma_squared[i];
    if (s2 <= 0.0) continue;
    const double* v = svd.vt.Row(static_cast<int>(i));
    if (emit) {
      const double s = std::sqrt(s2);
      for (int j = 0; j < d_; ++j) scaled[j] = s * v[j];
      if (s2 >= theta / 2.0) {
        IwmtOutput o;
        o.direction = scaled;
        out->push_back(std::move(o));
        continue;
      }
      residual_.Append(scaled.data());
    }
    basis_.SetRow(rank_, v);
    sigma2_[rank_++] = s2;
  }
  Rebase(residual_.row_count());
}

void IwmtProtocol::Flush(std::vector<IwmtOutput>* out) {
  for (int i = 0; i < residual_.row_count(); ++i) {
    IwmtOutput o;
    o.direction.assign(residual_.Row(i), residual_.Row(i) + d_);
    out->push_back(std::move(o));
  }
  residual_.Reset();
  rank_ = 0;
  Rebase(0);
}

}  // namespace dswm

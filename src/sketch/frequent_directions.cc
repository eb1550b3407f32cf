#include "sketch/frequent_directions.h"

#include <algorithm>
#include <cmath>

#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"

namespace dswm {

FrequentDirections::FrequentDirections(int d, int ell)
    : d_(d), ell_(ell), capacity_(2 * ell), buffer_(0, d), scratch_(0, d) {
  DSWM_CHECK_GT(d, 0);
  DSWM_CHECK_GE(ell, 1);
}

void FrequentDirections::Append(const double* row) {
  if (count_ == capacity_) Shrink();
  if (count_ == buffer_.rows()) {
    // Streaming mode (past ell rows the buffer is certain to fill):
    // reserve the full capacity once so no later append reallocates.
    if (count_ >= ell_) buffer_.Reserve(capacity_);
    buffer_.AppendRow(row, d_);
  } else {
    buffer_.SetRow(count_, row);
  }
  ++count_;
  input_mass_ += NormSquared(row, d_);
}

void FrequentDirections::Shrink() {
  if (count_ <= ell_) return;
  DSWM_OBS_COUNT("sketch.fd.shrinks", 1);
  const int n = count_;
  if (ell_ >= d_) {
    // Lossless: l >= d keeps every direction (delta = 0), and any R with
    // R^T R = B^T B is the same sketch, so the Gram's Cholesky factor
    // replaces the eigendecomposition. A (numerically) singular Gram can
    // stop it at a pivot that is not positive; that shrink takes the
    // eigen route below.
    Matrix u = GramTransposePrefix(buffer_, n);
    if (ShiftedCholesky(u, 0.0, 1.0, &u)) {
      DSWM_OBS_COUNT("sketch.fd.cholesky_shrinks", 1);
      for (int i = 0; i < d_; ++i) buffer_.SetRow(i, u.Row(i));
      count_ = d_;
      return;
    }
  }
  const int r = std::min(n, d_);

  // Eigendecompose through the Gram matrix of the short side (<= 2l or d),
  // reading the live prefix of the buffer directly -- no `live` copy.
  const bool rows_are_short = n <= d_;
  const EigenResult eig =
      rows_are_short ? SymmetricEigen(GramPrefix(buffer_, n))
                     : SymmetricEigen(GramTransposePrefix(buffer_, n));
  const auto sigma_squared = [&eig](int i) {
    return std::max(eig.values[i], 0.0);
  };

  // delta = sigma^2 of the (ell+1)-th direction (0 if fewer exist).
  const double delta = (ell_ < r) ? sigma_squared(ell_) : 0.0;
  shrinkage_ += delta;

  // Directions that survive the shrink: eigenvalues are descending, so
  // they form a prefix.
  int keep = 0;
  const int limit = std::min(ell_, r);
  while (keep < limit && sigma_squared(keep) - delta > 0.0) ++keep;

  if (rows_are_short) {
    // v_i = B^T u_i / sigma_i, assembled in the scratch block (the
    // computation reads every live buffer row, so it cannot write the
    // buffer in place), then re-orthonormalized exactly as RightSvd does.
    if (scratch_.rows() < limit) scratch_ = Matrix(ell_, d_);
    const double lead = sigma_squared(0);
    for (int i = 0; i < keep; ++i) {
      double* v = scratch_.Row(i);
      std::fill(v, v + d_, 0.0);
      const double lambda = sigma_squared(i);
      if (lambda > lead * 1e-26 && lambda > 0.0) {
        const double* u = eig.vectors.Row(i);
        for (int row = 0; row < n; ++row) Axpy(u[row], buffer_.Row(row), v, d_);
        Scale(v, d_, 1.0 / std::sqrt(lambda));
      }
      // else: zero row, its sigma is (numerically) zero.
    }
    OrthonormalizeRows(&scratch_, keep);
    for (int i = 0; i < keep; ++i) {
      const double s = std::sqrt(sigma_squared(i) - delta);
      const double* v = scratch_.Row(i);
      double* dst = buffer_.Row(i);
      for (int j = 0; j < d_; ++j) dst[j] = s * v[j];
    }
  } else {
    // d x d Gram: eigenvectors are the right singular vectors directly,
    // and they live outside the buffer, so write rows in place.
    for (int i = 0; i < keep; ++i) {
      const double s = std::sqrt(sigma_squared(i) - delta);
      const double* v = eig.vectors.Row(i);
      double* dst = buffer_.Row(i);
      for (int j = 0; j < d_; ++j) dst[j] = s * v[j];
    }
  }
  count_ = keep;
}

Matrix FrequentDirections::RowsMatrix() const {
  Matrix m(count_, d_);
  for (int i = 0; i < count_; ++i) m.SetRow(i, buffer_.Row(i));
  return m;
}

Matrix FrequentDirections::Covariance() const {
  return GramTransposePrefix(buffer_, count_);
}

void FrequentDirections::Merge(const FrequentDirections& other) {
  DSWM_CHECK_EQ(d_, other.d_);
  buffer_.Reserve(std::min(capacity_, count_ + other.count_));
  for (int i = 0; i < other.count_; ++i) {
    if (count_ == capacity_) Shrink();
    if (count_ == buffer_.rows()) {
      buffer_.AppendRow(other.buffer_.Row(i), d_);
    } else {
      buffer_.SetRow(count_, other.buffer_.Row(i));
    }
    ++count_;
  }
  input_mass_ += other.input_mass_;
  shrinkage_ += other.shrinkage_;
}

void FrequentDirections::Compact() {
  if (count_ > ell_) Shrink();
  if (buffer_.rows() > count_) {
    // Trim allocation slack so sealed buckets (mEH holds many) cost only
    // their live rows, matching the paper's space accounting.
    Matrix trimmed(count_, d_);
    for (int i = 0; i < count_; ++i) trimmed.SetRow(i, buffer_.Row(i));
    buffer_ = std::move(trimmed);
    scratch_ = Matrix(0, d_);
  }
}

void FrequentDirections::Reset() {
  count_ = 0;
  input_mass_ = 0.0;
  shrinkage_ = 0.0;
  // The buffer allocation is kept for reuse; only the live count resets.
}

}  // namespace dswm

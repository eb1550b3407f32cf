// Frequent Directions (Liberty, KDD 2013) with a 2l row buffer.
//
// Maintains a sketch B of at most 2l rows over a stream of rows of A such
// that  0 <= x^T (A^T A - B^T B) x <= Delta <= ||A||_F^2 / (l+1)  for all
// unit x, where Delta is the total shrinkage (sum of the per-shrink
// subtracted sigma^2). Choosing l ~ 1/eps gives an eps-covariance sketch.
//
// Used by: the matrix exponential histogram buckets (mEH, [17]), the IWMT
// protocol inside DA2 ([1]), and as the centralized baseline.

#ifndef DSWM_SKETCH_FREQUENT_DIRECTIONS_H_
#define DSWM_SKETCH_FREQUENT_DIRECTIONS_H_

#include "linalg/matrix.h"

namespace dswm {

/// Streaming Frequent Directions sketch.
class FrequentDirections {
 public:
  /// Sketch over d-dimensional rows with parameter l >= 1; holds at most
  /// 2l rows and guarantees covariance error <= ||A||_F^2 / (l+1).
  FrequentDirections(int d, int ell);

  [[nodiscard]] int dim() const { return d_; }
  [[nodiscard]] int ell() const { return ell_; }

  /// Number of rows currently held (sketch + unshrunk buffer), <= 2l.
  [[nodiscard]] int row_count() const { return count_; }

  /// Appends one row of A; triggers a shrink when the buffer fills.
  void Append(const double* row);

  /// Total squared Frobenius mass of all input appended so far.
  [[nodiscard]] double input_mass() const { return input_mass_; }

  /// Total shrinkage Delta: an upper bound on ||A^T A - B^T B||_2, and an
  /// exact accounting of the deleted directional mass.
  [[nodiscard]] double shrinkage() const { return shrinkage_; }

  /// Current sketch rows as a row_count() x d matrix (copies).
  [[nodiscard]] Matrix RowsMatrix() const;

  /// Row i < row_count() of the sketch, read in place (valid until the
  /// next mutating call).
  [[nodiscard]] const double* Row(int i) const {
    DSWM_DCHECK_LT(i, count_);
    return buffer_.Row(i);
  }

  /// B^T B, the d x d covariance estimate.
  [[nodiscard]] Matrix Covariance() const;

  /// Appends every row of `other`'s sketch into this sketch (mergeability:
  /// the combined guarantee is the sum of both shrinkages plus any new
  /// shrinkage incurred). `other` must have the same dimension.
  void Merge(const FrequentDirections& other);

  /// Forces a shrink down to at most l rows (idempotent when already
  /// small). Used before serializing a bucket or emitting a sketch.
  void Compact();

  /// Drops all rows and accounting.
  void Reset();

  /// Space in words currently used (rows * d), for space accounting.
  [[nodiscard]] long SpaceWords() const { return static_cast<long>(count_) * d_; }

 private:
  void Shrink();

  int d_;
  int ell_;
  int capacity_;
  int count_ = 0;
  double input_mass_ = 0.0;
  double shrinkage_ = 0.0;
  // Row buffer; the first count_ rows are live. Grows lazily (single-row
  // mEH buckets stay tiny) up to capacity_ rows, after which Append/Merge
  // reuse rows in place and never reallocate. Shrink() rewrites the live
  // prefix in place instead of materializing live/shrunk copies.
  Matrix buffer_;
  // ell_ x d scratch for the shrunk directions, allocated on first
  // Shrink() and reused; never visible outside Shrink().
  Matrix scratch_;
};

}  // namespace dswm

#endif  // DSWM_SKETCH_FREQUENT_DIRECTIONS_H_

// Dense row-major matrix and vector kernels.
//
// This is the numerical substrate for the whole library (the build
// environment has no Eigen). It provides exactly the operations the
// sketching and tracking algorithms need: BLAS-1/2/3 style kernels,
// Gram products, outer-product updates, and row views.

#ifndef DSWM_LINALG_MATRIX_H_
#define DSWM_LINALG_MATRIX_H_

#include <atomic>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/check.h"

namespace dswm {

/// Dense row-major matrix of doubles.
///
/// Rows are contiguous; `Row(i)` returns a pointer usable as a length-`cols`
/// vector. The class is a regular value type (copyable, movable).
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, 0.0) {
    DSWM_CHECK_GE(rows, 0);
    DSWM_CHECK_GE(cols, 0);
  }

  /// d x d identity.
  [[nodiscard]] static Matrix Identity(int d);

  /// Matrix stays a regular value type, but deep copies bump a
  /// process-global counter so tests can assert a measured path performs
  /// no gratuitous copies (e.g. the driver's query-snapshot path). Moves
  /// are O(1) and uncounted.
  Matrix(const Matrix& other)
      : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
    copy_count_.fetch_add(1, std::memory_order_relaxed);
  }
  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      rows_ = other.rows_;
      cols_ = other.cols_;
      data_ = other.data_;
      copy_count_.fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
  }
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Deep copies since process start (test hook; diff around the code
  /// under audit).
  [[nodiscard]] static long CopyCount() {
    return copy_count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] double& operator()(int i, int j) {
    DSWM_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i) * cols_ + j];
  }
  [[nodiscard]] double operator()(int i, int j) const {
    DSWM_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i) * cols_ + j];
  }

  /// Bounds-checked access: CHECK-fails on out-of-range (i, j) in every
  /// build type. Prefer operator() in hot loops (DCHECK-only bounds).
  [[nodiscard]] double& at(int i, int j) {
    DSWM_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i) * cols_ + j];
  }
  [[nodiscard]] double at(int i, int j) const {
    DSWM_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i) * cols_ + j];
  }

  [[nodiscard]] double* Row(int i) {
    DSWM_DCHECK(i >= 0 && i < rows_);
    return data_.data() + static_cast<size_t>(i) * cols_;
  }
  [[nodiscard]] const double* Row(int i) const {
    DSWM_DCHECK(i >= 0 && i < rows_);
    return data_.data() + static_cast<size_t>(i) * cols_;
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  /// Sets every entry to zero without reallocating.
  void SetZero() { std::memset(data_.data(), 0, data_.size() * sizeof(double)); }

  /// Copies `src` (length cols()) into row i.
  void SetRow(int i, const double* src) {
    std::memcpy(Row(i), src, sizeof(double) * cols_);
  }

  /// Pre-allocates storage for at least `rows` rows so subsequent
  /// AppendRow calls never reallocate; shape is unchanged. No-op when the
  /// current capacity already suffices.
  void Reserve(int rows);

  /// Appends a row (O(cols) amortized); keeps cols() fixed (or sets it if
  /// the matrix is empty).
  void AppendRow(const double* src, int len);

  /// Sum of squared entries, i.e. ||A||_F^2.
  [[nodiscard]] double FrobeniusNormSquared() const;

  /// this += alpha * other (same shape).
  void AddScaled(const Matrix& other, double alpha);

  /// this += alpha * v v^T where v has length cols(); requires square.
  void AddOuterProduct(const double* v, double alpha);

  /// As AddOuterProduct but touching only the listed nonzero coordinates of
  /// v (O(nnz^2)); used for sparse tf-idf style rows.
  void AddSparseOuterProduct(const double* v, const std::vector<int>& support,
                             double alpha);

  [[nodiscard]] bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  inline static std::atomic<long> copy_count_{0};

  int rows_;
  int cols_;
  std::vector<double> data_;
};

// ---- Vector kernels (operate on raw pointers of explicit length) ----------

/// Dot product of two length-n vectors.
[[nodiscard]] double Dot(const double* x, const double* y, int n);

/// Squared L2 norm.
[[nodiscard]] double NormSquared(const double* x, int n);

/// y += alpha * x.
void Axpy(double alpha, const double* x, double* y, int n);

/// x *= alpha.
void Scale(double* x, int n, double alpha);

// ---- Matrix kernels --------------------------------------------------------
//
// The production kernels (MatMul / Gram / GramTranspose and their *Prefix
// variants) are cache-blocked and register-tiled, and parallelize over row
// blocks of the output through ThreadPool::Global() when it has more than
// one thread. Every output element is owned by exactly one register
// accumulator that sums its reduction in ascending index order, so results
// are bit-identical to the naive `*Reference` oracles for finite inputs at
// any thread count (see DESIGN.md "Performance architecture").

/// y = A x (y length rows, x length cols).
void MatVec(const Matrix& a, const double* x, double* y);

/// y = A^T x (y length cols, x length rows).
void MatTVec(const Matrix& a, const double* x, double* y);

/// Returns A * B.
[[nodiscard]] Matrix MatMul(const Matrix& a, const Matrix& b);

/// Naive triple-loop oracle for MatMul; kept as the test/benchmark
/// reference for the blocked kernel.
[[nodiscard]] Matrix MatMulReference(const Matrix& a, const Matrix& b);

/// Returns A^T * A (cols x cols). This is the covariance Gram product used
/// throughout: for a sketch B it yields B^T B.
[[nodiscard]] Matrix GramTranspose(const Matrix& a);

/// A^T A over only the first `rows` rows of `a` (rows <= a.rows()). Lets
/// callers that keep live rows in a prefix of a larger buffer (the
/// zero-copy FrequentDirections shrink path) avoid materializing a copy.
[[nodiscard]] Matrix GramTransposePrefix(const Matrix& a, int rows);

/// Rank-1-update oracle for GramTranspose (the pre-blocking kernel).
[[nodiscard]] Matrix GramTransposeReference(const Matrix& a);

/// Cholesky factorization U^T U = shift I + sign M of the symmetric d x d
/// `m` (its upper triangle is read) into the d x d `u`, which may be `m`
/// itself. Returns true with U upper triangular (zeros below the
/// diagonal), or false at the first pivot that is not positive (NaN
/// included), leaving `u` unspecified. Each element of U subtracts its
/// terms in ascending k and then divides by its pivot, exactly as the
/// unblocked right-looking factorization does, so the factor is
/// bit-identical to it; the AVX and portable tiles order the same
/// operations. About d^3 / 6 multiply-adds.
[[nodiscard]] bool ShiftedCholesky(const Matrix& m, double shift, double sign,
                                   Matrix* u);

/// Returns A * A^T (rows x rows); used by the thin SVD on the short side.
[[nodiscard]] Matrix Gram(const Matrix& a);

/// A A^T over only the first `rows` rows of `a` (rows <= a.rows()).
[[nodiscard]] Matrix GramPrefix(const Matrix& a, int rows);

/// Dot-product oracle for Gram (the pre-blocking kernel).
[[nodiscard]] Matrix GramReference(const Matrix& a);

}  // namespace dswm

#endif  // DSWM_LINALG_MATRIX_H_

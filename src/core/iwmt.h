// IWMT: infinite-window matrix tracking of a single stream
// (realization of protocol P2 of Ghashami-Phillips-Li, VLDB 2014 [1],
// used as a black box by DA2 per Algorithm 5).
//
// Contract (Section III-B): the protocol consumes a row sequence and emits
// another row sequence of "significant directions" such that, at every
// point, the covariance gap between the consumed prefix and the emitted
// prefix has spectral norm below the threshold theta (plus the Frequent
// Directions shrinkage of the internal residual sketch, <= input mass /
// (l+1)).
//
// Realization: keep an FD sketch of the *unreported* rows. When the
// residual's top squared singular value reaches theta, decompose the small
// residual and emit every direction sigma_i v_i with sigma_i^2 >= theta/2,
// removing them from the residual. Each emitted direction carries >=
// theta/2 squared mass, so a window of mass F emits O(F/theta) directions
// -- O(d/eps) words at theta = eps * F_hat^2.
//
// Trigger (DESIGN.md item 5): after every rebuild of the residual (an
// emission, a decomposition that found nothing to emit, or an FD shrink)
// its covariance is kept factored as V^T diag(sigma^2) V with orthonormal
// rows v_i. The m rows appended since only add their projections V f and
// their dot products with each other. "top < theta" is then exactly the
// positive definiteness of the m x m Schur complement
//   I - F M^-1 F^T,  M = theta I - V^T diag(sigma^2) V,
// which a Cholesky factorization with a safety margin certifies, stopping
// at the first failing pivot. The tested matrix only grows with theta, so
// the factor is kept across inputs at the theta it was built for and
// extended by each new row in O(m r + m^2); it is rebuilt, in
// O(m^2 r + m^3), only when theta falls below that value or an extension
// fails above it. Only a failed certificate decomposes, and the
// decomposition decides exactly.

#ifndef DSWM_CORE_IWMT_H_
#define DSWM_CORE_IWMT_H_

#include <vector>

#include "linalg/matrix.h"
#include "sketch/frequent_directions.h"

namespace dswm {

/// One emitted significant direction.
struct IwmtOutput {
  std::vector<double> direction;  // sigma_i * v_i, length d
};

/// Single-stream significant-direction emitter.
class IwmtProtocol {
 public:
  /// d-dimensional rows; residual FD sketch parameter ell (choose
  /// ~2/eps).
  IwmtProtocol(int d, int ell);

  /// Consumes a row under threshold `theta` (> 0; may differ between
  /// calls, e.g. IWMT_c's growing threshold). If the residual's top
  /// squared singular value reaches theta, every direction with
  /// sigma^2 >= theta/2 is appended to *out; otherwise nothing is.
  void Input(const double* row, double theta, std::vector<IwmtOutput>* out);

  /// Emits the entire residual (every remaining direction) and resets the
  /// sketch; DA2 flushes at window boundaries so unreported mass and FD
  /// shrinkage cannot accumulate across windows.
  void Flush(std::vector<IwmtOutput>* out);

  /// Squared Frobenius mass currently unreported.
  [[nodiscard]] double unreported_mass() const { return residual_.input_mass(); }

  /// The residual's rows plus the factor the trigger keeps across calls
  /// (V, sigma^2, the new rows' projections and Gram), counted the way FD
  /// counts its rows: the part in use. The certificate's Cholesky factor
  /// (weight_, scaled_, chol_) is left uncounted: between calls it is a
  /// cache, recomputable from the counted projections, Gram, sigma^2 and
  /// chol_theta_.
  [[nodiscard]] long SpaceWords() const;

  /// The unreported residual sketch, read-only.
  [[nodiscard]] const FrequentDirections& residual() const { return residual_; }

 private:
  void AllocateFactor();
  void FactorShrunkRows(int rows);
  void Rebase(int rows);
  bool CertifiedBelow(double theta);
  bool ExtendCholesky(int from, int m);
  void Decompose(double theta, std::vector<IwmtOutput>* out);

  int d_;
  FrequentDirections residual_;
  double last_top_ = 0.0;         // top sigma^2 of the factor
  double mass_since_check_ = 0.0; // mass appended since the factor

  // Factor of residual rows [0, base_rows_): rank_ orthonormal rows of
  // basis_ with squared singular values sigma2_. The buffers below are
  // sized on first use (DA2 builds three protocols per site, and a short
  // window may never need them).
  int base_rows_ = 0;
  int rank_ = 0;
  Matrix basis_;
  std::vector<double> sigma2_;
  // Rows appended since the factor: row a of proj_ is V f_a, row a of
  // gram_ holds f_a . f_b for b <= a. Filled lazily for the first
  // projected_ of them, by the certificate.
  int projected_ = 0;
  Matrix proj_;
  Matrix gram_;
  // The certificate's factor at theta = chol_theta_, valid for its first
  // chol_rows_ rows: V f_a scaled by sqrt(sigma^2 / (theta - sigma^2)),
  // and the Cholesky factor.
  int chol_rows_ = 0;
  double chol_theta_ = 0.0;
  std::vector<double> weight_;
  Matrix scaled_;
  Matrix chol_;
};

}  // namespace dswm

#endif  // DSWM_CORE_IWMT_H_

// Lanczos tridiagonalization of a symmetric operator, run step by step.
//
// After k steps from a start vector q_0 the run holds an orthonormal basis
// Q_k = [q_0 .. q_{k-1}] of the Krylov space span{q_0, A q_0, ...,
// A^{k-1} q_0} and the tridiagonal T_k = Q_k^T A Q_k (alpha on the
// diagonal, beta beside it), with A Q_k = Q_k T_k + beta_{k-1} q_k e_k^T.
// An eigenpair (theta, s) of T_k gives the Ritz pair (theta, Q_k s) of A,
// and its residual ||A y - theta y|| is beta_{k-1} |s_k|, so how far each
// pair has converged costs no operator application. The extreme Ritz
// values converge first and from the inside (theta_max <= lambda_max and
// theta_min >= lambda_min), so max |theta| is a lower bound on ||A||_2.
//
// Every new basis vector is orthogonalized against all earlier ones (full
// reorthogonalization), so Q_k stays orthonormal to rounding and no
// spurious copies of converged Ritz values appear. A step costs one
// operator application plus O(k d).

#ifndef DSWM_LINALG_LANCZOS_H_
#define DSWM_LINALG_LANCZOS_H_

#include <vector>

#include "linalg/matrix.h"
#include "linalg/spectral_norm.h"

namespace dswm {

/// One Lanczos run at a time; the buffers are sized by the first run that
/// needs them and reused by later ones.
class Lanczos {
 public:
  /// Begins a run on a d-dimensional operator from `start` (length d,
  /// nonzero, any norm; a warm start is simply a good start vector),
  /// allowing at most min(max_steps, d) steps.
  void Start(const double* start, int d, int max_steps);

  /// Applies the operator to the newest basis vector and extends the run
  /// by one step. Returns false, doing nothing, once the run has taken its
  /// last allowed step or has broken down.
  bool Step(const SymmetricApplyFn& apply);

  /// Steps taken: the order k of T_k.
  [[nodiscard]] int steps() const { return steps_; }

  /// True once a step found the Krylov space invariant (beta at rounding
  /// level against ||T_k||): every Ritz pair is then an eigenpair of A to
  /// rounding, and no further step is possible.
  [[nodiscard]] bool broke_down() const { return broke_down_; }

  /// The largest and smallest Ritz values of T_k, which each step updates
  /// in O(k) from the previous step's.
  [[nodiscard]] double max_ritz_value() const { return max_ritz_; }
  [[nodiscard]] double min_ritz_value() const { return min_ritz_; }

  /// Writes the Ritz vector of whichever of those two has the larger
  /// magnitude (unit to rounding, length d) to y, in O(k d).
  void TopRitzVector(double* y);

  /// Solves T_k (after at least one step) for all its Ritz values, in
  /// decreasing order, and their residual norms, in O(k^2) with no
  /// eigenvectors. Returns false if the tridiagonal QL fails to converge
  /// (non-finite input).
  [[nodiscard]] bool SolveRitz();
  [[nodiscard]] const std::vector<double>& ritz_values() const {
    return values_;
  }
  [[nodiscard]] const std::vector<double>& residuals() const {
    return residuals_;
  }

  /// Index into ritz_values() of the value of largest magnitude.
  [[nodiscard]] int TopIndex() const;

  /// Writes the Ritz vector of ritz_values()[i] (unit to rounding, length
  /// d) to y. The first call after a SolveRitz solves for the eigenvectors
  /// of T_k, in O(k^3).
  void RitzVector(int i, double* y);

 private:
  void Orthogonalize(double* w);
  void LoadTridiagonal();

  int d_ = 0;
  int max_steps_ = 0;
  int steps_ = 0;
  bool broke_down_ = false;
  double t_norm_ = 0.0;  // max over steps of |alpha_j| + beta_{j-1}
  double max_ritz_ = 0.0;
  double min_ritz_ = 0.0;
  Matrix basis_;         // row j is q_j
  std::vector<double> alpha_;
  std::vector<double> beta_;  // beta_[j] couples q_j and q_{j+1}
  std::vector<double> w_;
  std::vector<double> coef_;

  // SolveRitz: the QL's work arrays (TopRitzVector's too), the last
  // component of each eigenvector of T_k (one column), and the sorted
  // results.
  std::vector<double> diag_;
  std::vector<double> sub_;
  Matrix last_;
  std::vector<int> order_;  // order_[i]: QL index of ritz_values()[i]
  std::vector<double> values_;
  std::vector<double> residuals_;
  Matrix vectors_;  // eigenvectors of T_k as rows, in QL order
  bool vectors_ready_ = false;
};

}  // namespace dswm

#endif  // DSWM_LINALG_LANCZOS_H_

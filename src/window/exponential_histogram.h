// Generalized exponential histogram (gEH) for sliding-window sums.
//
// Maintains an epsilon-relative-error estimate of the sum of positive
// weights whose timestamps lie in (t_now - W, t_now], in
// O((1/eps) log(N R)) buckets (Datar-Gionis-Indyk-Motwani [19],
// generalized to real weights). Used by the deterministic SUM tracker
// (Algorithm 3) and by every site that needs ||A_w||_F^2 locally.
//
// Merge rule: two adjacent buckets merge only when their combined weight is
// at most eps times the total weight of strictly newer buckets. Because
// expiry removes oldest-first, the "strictly newer" mass of a surviving
// bucket can only grow after its merge, so every merged bucket's weight
// stays <= eps * (live newer mass) <= eps * (true window sum) at all times.
// Only the oldest (possibly straddling) bucket is ever partially expired,
// so the estimate total - merged_oldest/2 has relative error <= eps/2.

#ifndef DSWM_WINDOW_EXPONENTIAL_HISTOGRAM_H_
#define DSWM_WINDOW_EXPONENTIAL_HISTOGRAM_H_

#include <deque>

#include "stream/timed_row.h"

namespace dswm {

/// Sliding-window sum sketch with relative error <= eps.
class ExponentialHistogram {
 public:
  /// Window of length `window` ticks; estimates within relative `eps`.
  ExponentialHistogram(double eps, Timestamp window);

  /// Inserts weight w (> 0) at time t. Times must be non-decreasing.
  void Insert(double w, Timestamp t);

  /// Expires buckets and returns the window-sum estimate at time t_now.
  [[nodiscard]] double Query(Timestamp t_now);

  /// Estimate without advancing time (uses the last seen t_now).
  [[nodiscard]] double Estimate() const;

  /// The histogram clock: the latest time inserted or queried (0 before
  /// any). Insert and Query need times at or after it.
  [[nodiscard]] Timestamp last_time() const { return last_time_; }

  /// Number of live buckets (space usage is 2 words per bucket).
  [[nodiscard]] int bucket_count() const { return static_cast<int>(buckets_.size()); }

  /// Space in words: 2 per bucket (sum + timestamp).
  [[nodiscard]] long SpaceWords() const { return 2L * bucket_count(); }

 private:
  struct Bucket {
    double sum;
    Timestamp t_newest;
    bool merged;  // true once this bucket contains more than one item
  };

  void ExpireUpTo(Timestamp t_now);
  void Compress();

  double eps_;
  Timestamp window_;
  std::deque<Bucket> buckets_;  // front = oldest
  double total_ = 0.0;
  Timestamp last_time_ = 0;
  int inserts_since_compress_ = 0;
};

}  // namespace dswm

#endif  // DSWM_WINDOW_EXPONENTIAL_HISTOGRAM_H_

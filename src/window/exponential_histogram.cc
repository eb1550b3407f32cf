#include "window/exponential_histogram.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace dswm {

ExponentialHistogram::ExponentialHistogram(double eps, Timestamp window)
    : eps_(eps), window_(window) {
  DSWM_CHECK_GT(eps, 0.0);
  DSWM_CHECK_GT(window, 0);
}

void ExponentialHistogram::Insert(double w, Timestamp t) {
  DSWM_CHECK_GT(w, 0.0);
  DSWM_CHECK_GE(t, last_time_);
  last_time_ = t;
  ExpireUpTo(t);
  buckets_.push_back(Bucket{w, t, false});
  total_ += w;
  if (++inserts_since_compress_ >= 8) {
    Compress();
    inserts_since_compress_ = 0;
  }
}

void ExponentialHistogram::ExpireUpTo(Timestamp t_now) {
  const Timestamp cutoff = t_now - window_;
  while (!buckets_.empty() && buckets_.front().t_newest <= cutoff) {
    DSWM_OBS_COUNT("window.geh.expired_buckets", 1);
    total_ -= buckets_.front().sum;
    buckets_.pop_front();
  }
  // Expiry invariants: the surviving prefix is strictly within the window,
  // bucket timestamps are non-decreasing oldest -> newest, and the running
  // total never goes (more than rounding) negative.
  DSWM_DCHECK(buckets_.empty() || buckets_.front().t_newest > cutoff);
  DSWM_DCHECK(buckets_.size() < 2 ||
              buckets_.front().t_newest <= buckets_.back().t_newest);
  DSWM_DCHECK_GE(total_, -1e-9);
}

void ExponentialHistogram::Compress() {
  if (buckets_.size() < 2) return;
  // One pass oldest -> newest with one open destination, compacting in
  // place: buckets_[dst] is the open destination and src the next bucket
  // not yet absorbed. prefix = mass of buckets strictly older than the
  // pair under consideration; suffix of the pair = total - prefix - pair
  // mass.
  double prefix = 0.0;
  size_t dst = 0;
  for (size_t src = 1; src < buckets_.size(); ++src) {
    const double pair = buckets_[dst].sum + buckets_[src].sum;
    const double suffix = total_ - prefix - pair;
    if (pair <= eps_ * suffix) {
      DSWM_OBS_COUNT("window.geh.merges", 1);
      buckets_[dst].sum = pair;
      buckets_[dst].t_newest = buckets_[src].t_newest;
      buckets_[dst].merged = true;
      // The merged bucket stays open: it may absorb the next one too.
    } else {
      prefix += buckets_[dst].sum;
      buckets_[++dst] = buckets_[src];
    }
  }
  buckets_.erase(buckets_.begin() + static_cast<long>(dst) + 1,
                 buckets_.end());
}

double ExponentialHistogram::Query(Timestamp t_now) {
  DSWM_CHECK_GE(t_now, last_time_);
  last_time_ = t_now;
  ExpireUpTo(t_now);
  return Estimate();
}

double ExponentialHistogram::Estimate() const {
  if (buckets_.empty()) return 0.0;
  double est = total_;
  if (buckets_.front().merged) est -= 0.5 * buckets_.front().sum;
  return est;
}

}  // namespace dswm

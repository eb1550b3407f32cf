#include "window/matrix_eh.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "linalg/batched.h"
#include "obs/metrics.h"

namespace dswm {

MatrixExpHistogram::MatrixExpHistogram(int d, double eps, Timestamp window)
    : d_(d),
      eps_bucket_(eps / 3.0),
      ell_(static_cast<int>(std::ceil(3.0 / eps))),
      window_(window) {
  DSWM_CHECK_GT(d, 0);
  DSWM_CHECK_GT(eps, 0.0);
  DSWM_CHECK_GT(window, 0);
}

void MatrixExpHistogram::Insert(const double* row, Timestamp t) {
  if (t < last_time_) {
    InsertLate(row, t);
    return;
  }
  last_time_ = t;
  Advance(t);

  Bucket b{FrequentDirections(d_, ell_), NormSquared(row, d_), t, t, false};
  b.fd.Append(row);
  total_mass_ += b.mass;
  buckets_.push_back(std::move(b));

  if (++inserts_since_compress_ >= 4) {
    Compress();
    inserts_since_compress_ = 0;
  }
}

void MatrixExpHistogram::InsertLate(const double* row, Timestamp t) {
  // A reordered arrival (retransmitted row upload): the histogram clock
  // already advanced past t. Never regress last_time_ -- expiry decisions
  // stay anchored to the newest time seen.
  if (t <= last_time_ - window_) {
    // Its whole interval has already expired; adding it would violate the
    // front-bucket freshness invariant and resurrect dropped mass.
    DSWM_OBS_COUNT("window.meh.late_dropped", 1);
    return;
  }
  DSWM_OBS_COUNT("window.meh.late_inserts", 1);
  Bucket b{FrequentDirections(d_, ell_), NormSquared(row, d_), t, t, false};
  b.fd.Append(row);
  total_mass_ += b.mass;
  // Splice into time order (after the last bucket at or before t, so
  // arrival order is preserved among equal timestamps), keeping the
  // deque's oldest -> newest invariant that expiry and DA2's reverse
  // replay both walk.
  auto it = buckets_.end();
  while (it != buckets_.begin() && (it - 1)->t_newest > t) --it;
  buckets_.insert(it, std::move(b));

  if (++inserts_since_compress_ >= 4) {
    Compress();
    inserts_since_compress_ = 0;
  }
}

void MatrixExpHistogram::Advance(Timestamp t_now,
                                 std::vector<Bucket>* dropped) {
  DSWM_CHECK_GE(t_now, last_time_);
  last_time_ = t_now;
  const Timestamp cutoff = t_now - window_;
  while (!buckets_.empty() && buckets_.front().t_newest <= cutoff) {
    DSWM_OBS_COUNT("window.meh.expired_buckets", 1);
    total_mass_ -= buckets_.front().mass;
    if (dropped != nullptr) dropped->push_back(std::move(buckets_.front()));
    buckets_.pop_front();
  }
  // Expiry invariants: surviving buckets end inside the window, hold
  // internally-ordered time ranges in oldest -> newest order, and the
  // running mass never goes (more than rounding) negative.
  DSWM_DCHECK(buckets_.empty() || buckets_.front().t_newest > cutoff);
  DSWM_DCHECK(buckets_.empty() ||
              buckets_.front().t_oldest <= buckets_.front().t_newest);
  DSWM_DCHECK(buckets_.size() < 2 ||
              buckets_.front().t_newest <= buckets_.back().t_newest);
  DSWM_DCHECK_GE(total_mass_, -1e-9);
}

void MatrixExpHistogram::Compress() {
  if (buckets_.size() < 2) return;
  // Plan first, execute second. Each merge decision reads only bucket
  // masses (prefix/suffix arithmetic), never sketch contents, so the
  // sequential decision loop can run to completion before any FD work
  // happens. The walk keeps one open destination and its running mass; a
  // merged pair stays open and is tested against the next bucket, so every
  // group is one destination bucket absorbing the consecutive run of
  // source buckets [dst + 1, src_end).
  struct MergeGroup {
    size_t dst;
    size_t src_end;
    double mass;
  };
  std::vector<MergeGroup> groups;
  double prefix = 0.0;  // mass of the buckets older than dst
  size_t dst = 0;
  double dst_mass = buckets_[0].mass;
  for (size_t src = 1; src < buckets_.size(); ++src) {
    const double pair = dst_mass + buckets_[src].mass;
    const double suffix = total_mass_ - prefix - pair;
    if (pair <= eps_bucket_ * suffix) {
      DSWM_OBS_COUNT("window.meh.merges", 1);
      if (groups.empty() || groups.back().dst != dst) {
        groups.push_back({dst, src + 1, pair});
      } else {
        groups.back().src_end = src + 1;
        groups.back().mass = pair;
      }
      dst_mass = pair;
    } else {
      prefix += dst_mass;
      dst = src;
      dst_mass = buckets_[src].mass;
    }
  }
  if (groups.empty()) return;

  // All merge chains due this tick run as one batch (one pool dispatch).
  // Each job replays its chain's Merge sequence in order -- the embedded
  // shrink schedule is per-destination, so the batch is bit-identical to
  // the sequential loop at any thread count.
  std::vector<FdShrinkJob> jobs(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    jobs[g].fd = &buckets_[groups[g].dst].fd;
    for (size_t s = groups[g].dst + 1; s < groups[g].src_end; ++s) {
      jobs[g].sources.push_back(&buckets_[s].fd);
    }
  }
  BatchedFdShrink(jobs.data(), static_cast<int>(jobs.size()));

  for (const MergeGroup& g : groups) {
    Bucket& dst = buckets_[g.dst];
    dst.mass = g.mass;
    dst.t_newest = buckets_[g.src_end - 1].t_newest;
    dst.merged = true;
  }
  // Drop the absorbed sources in place, preserving order: each bucket kept
  // after the first source moves down over the sources before it, then
  // the vacated tail goes in one erase.
  size_t write = groups.front().dst + 1;
  for (size_t g = 0; g < groups.size(); ++g) {
    const size_t kept_end =
        g + 1 < groups.size() ? groups[g + 1].dst + 1 : buckets_.size();
    for (size_t b = groups[g].src_end; b < kept_end; ++b) {
      buckets_[write++] = std::move(buckets_[b]);
    }
  }
  buckets_.erase(buckets_.begin() + static_cast<long>(write), buckets_.end());
}

Matrix MatrixExpHistogram::QueryRows() const {
  int total = 0;
  for (const Bucket& b : buckets_) total += b.fd.row_count();
  Matrix rows(0, d_);
  rows.Reserve(total);
  for (const Bucket& b : buckets_) {
    const Matrix m = b.fd.RowsMatrix();
    for (int i = 0; i < m.rows(); ++i) rows.AppendRow(m.Row(i), d_);
  }
  return rows;
}

Matrix MatrixExpHistogram::QueryCovariance() const {
  Matrix c(d_, d_);
  for (const Bucket& b : buckets_) {
    const Matrix m = b.fd.RowsMatrix();
    for (int i = 0; i < m.rows(); ++i) c.AddOuterProduct(m.Row(i), 1.0);
  }
  return c;
}

double MatrixExpHistogram::FrobeniusSquaredEstimate() const {
  if (buckets_.empty()) return 0.0;
  double est = total_mass_;
  if (buckets_.front().merged) est -= 0.5 * buckets_.front().mass;
  return est;
}

int MatrixExpHistogram::TotalRows() const {
  int n = 0;
  for (const Bucket& b : buckets_) n += b.fd.row_count();
  return n;
}

long MatrixExpHistogram::SpaceWords() const {
  long words = 0;
  for (const Bucket& b : buckets_) words += b.fd.SpaceWords() + 4;
  return words;
}

}  // namespace dswm

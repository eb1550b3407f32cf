// Deterministic, near-zero-overhead-when-disabled observability metrics.
//
// One process-global MetricRegistry holds named counters, gauges, and
// fixed-bucket histograms. Instrumented code pays a single relaxed atomic
// load (the global enabled flag) when metrics are off; when on, updates are
// relaxed atomic adds, which are commutative, so every *count*-valued
// metric is identical at any thread count (the PR 2 determinism contract).
// The only nondeterministic metrics are wall-clock times, which by
// convention live under names ending in ".wall_ns"; determinism tests and
// snapshot comparisons exclude exactly that suffix.
//
// Metric handles returned by the registry are stable for the process
// lifetime: ResetForTest() zeroes values but never invalidates pointers,
// so the DSWM_OBS_* macros can cache them in function-local statics.

#ifndef DSWM_OBS_METRICS_H_
#define DSWM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace dswm {
namespace obs {

/// True when metric collection is on. Single relaxed atomic load.
[[nodiscard]] bool Enabled();

/// Turns collection on or off. Toggle only between runs, never while
/// instrumented code is executing on another thread.
void SetEnabled(bool enabled);

/// A monotonically increasing counter. Add() is a relaxed atomic add and
/// does NOT check Enabled() -- gate at the call site (the DSWM_OBS_COUNT
/// macro does).
class Counter {
 public:
  void Add(long delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] long value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long> value_{0};
};

/// A last-write-wins instantaneous value (e.g. end-of-run comm totals).
class Gauge {
 public:
  void Set(long v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] long value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long> value_{0};
};

/// A histogram over fixed, strictly increasing upper bucket edges chosen at
/// registration. A sample v lands in the first bucket with v <= edge; values
/// above the last edge land in the implicit overflow bucket, so counts has
/// edges.size() + 1 entries. Observe() is a few relaxed atomic adds; like
/// Counter, it does not check Enabled().
class Histogram {
 public:
  explicit Histogram(std::vector<long> edges);

  void Observe(long value);
  [[nodiscard]] const std::vector<long>& edges() const { return edges_; }
  [[nodiscard]] std::vector<long> counts() const;
  [[nodiscard]] long total_count() const {
    return total_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long sum() const { return sum_.load(std::memory_order_relaxed); }
  void ResetForTest();

 private:
  std::vector<long> edges_;
  std::vector<std::atomic<long>> counts_;  // edges_.size() + 1 (overflow)
  std::atomic<long> total_count_{0};
  std::atomic<long> sum_{0};
};

/// Point-in-time copy of a histogram's state.
struct HistogramSnapshot {
  std::vector<long> edges;
  std::vector<long> counts;
  long total_count = 0;
  long sum = 0;

  [[nodiscard]] bool operator==(const HistogramSnapshot& o) const {
    return edges == o.edges && counts == o.counts &&
           total_count == o.total_count && sum == o.sum;
  }
};

/// A point-in-time copy of every metric, keyed by name in sorted (stable)
/// order. Snapshots are plain values: diff-able and serializable.
struct MetricsSnapshot {
  std::map<std::string, long> counters;
  std::map<std::string, long> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Returns this snapshot minus `base`: counters and histogram buckets
  /// subtract (metrics absent from `base` are kept whole); gauges keep
  /// their current value. Counters whose delta is 0 and histograms with no
  /// new samples are dropped -- the delta describes what moved during the
  /// interval, independent of what earlier activity registered. Use to
  /// scope the process-cumulative registry to one run.
  [[nodiscard]] MetricsSnapshot DeltaSince(const MetricsSnapshot& base) const;

  /// One JSON document: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"edges":[...],"counts":[...],"sum":n,"count":n}}}.
  /// Keys are emitted in sorted order, so equal snapshots serialize
  /// byte-identically.
  [[nodiscard]] std::string ToJson() const;
};

/// Registry of named metrics. Get*() registers on first use and returns a
/// pointer that stays valid for the process lifetime. Registration takes a
/// mutex; updates through the returned handles are lock-free (the metric
/// objects are heap-allocated and never destroyed while the registry
/// lives, so escaping the raw pointer from under mu_ is safe by design).
class MetricRegistry {
 public:
  [[nodiscard]] Counter* GetCounter(const std::string& name)
      DSWM_EXCLUDES(mu_);
  [[nodiscard]] Gauge* GetGauge(const std::string& name) DSWM_EXCLUDES(mu_);
  /// Registers (or fetches) a histogram. `edges` must be strictly
  /// increasing and non-empty; a second registration under the same name
  /// must pass identical edges (DCHECK'd) and returns the existing one.
  [[nodiscard]] Histogram* GetHistogram(const std::string& name,
                                        const std::vector<long>& edges)
      DSWM_EXCLUDES(mu_);

  [[nodiscard]] MetricsSnapshot Snapshot() const DSWM_EXCLUDES(mu_);

  /// Zeroes every metric value. Handles stay valid. Test-only: never call
  /// while instrumented code runs on another thread.
  void ResetForTest() DSWM_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      DSWM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ DSWM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      DSWM_GUARDED_BY(mu_);
};

/// The process-global registry every instrumentation site reports into.
[[nodiscard]] MetricRegistry& Registry();

}  // namespace obs
}  // namespace dswm

/// Bumps counter `name` by `delta` when metrics are enabled; a single
/// relaxed load + untaken branch when disabled. The handle lookup happens
/// once per site (function-local static), so the enabled path is one atomic
/// add. `name` must be a constant expression for the site's lifetime.
#define DSWM_OBS_COUNT(name, delta)                                         \
  do {                                                                      \
    if (::dswm::obs::Enabled()) {                                           \
      static ::dswm::obs::Counter* dswm_obs_counter =                       \
          ::dswm::obs::Registry().GetCounter(name);                         \
      dswm_obs_counter->Add(delta);                                         \
    }                                                                       \
  } while (0)

/// Records `value` into histogram `name` (edges fixed at first use).
#define DSWM_OBS_HISTOGRAM(name, edges, value)                              \
  do {                                                                      \
    if (::dswm::obs::Enabled()) {                                           \
      static ::dswm::obs::Histogram* dswm_obs_histogram =                   \
          ::dswm::obs::Registry().GetHistogram(name, edges);                \
      dswm_obs_histogram->Observe(value);                                   \
    }                                                                       \
  } while (0)

#endif  // DSWM_OBS_METRICS_H_

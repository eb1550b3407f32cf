#include "obs/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace dswm {
namespace obs {

namespace {

std::atomic<bool> g_enabled{false};

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      default: out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<long> edges)
    : edges_(std::move(edges)), counts_(edges_.size() + 1) {
  DSWM_CHECK(!edges_.empty());
  for (size_t i = 1; i < edges_.size(); ++i) {
    DSWM_CHECK_LT(edges_[i - 1], edges_[i]);
  }
}

void Histogram::Observe(long value) {
  const size_t idx = static_cast<size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), value) - edges_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  total_count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<long> Histogram::counts() const {
  std::vector<long> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::ResetForTest() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& base) const {
  MetricsSnapshot out = *this;
  for (const auto& [name, v] : base.counters) {
    auto it = out.counters.find(name);
    if (it != out.counters.end()) it->second -= v;
  }
  for (const auto& [name, h] : base.histograms) {
    auto it = out.histograms.find(name);
    if (it == out.histograms.end()) continue;
    DSWM_CHECK(it->second.edges == h.edges);
    for (size_t i = 0; i < h.counts.size(); ++i) {
      it->second.counts[i] -= h.counts[i];
    }
    it->second.total_count -= h.total_count;
    it->second.sum -= h.sum;
  }
  // A run-scoped delta describes what happened *during* the run; metrics
  // that merely exist in the cumulative registry but did not move are
  // noise, and keeping them would make two identical runs' snapshots
  // differ on which zero-entries they inherited from earlier activity.
  for (auto it = out.counters.begin(); it != out.counters.end();) {
    it = it->second == 0 ? out.counters.erase(it) : std::next(it);
  }
  for (auto it = out.histograms.begin(); it != out.histograms.end();) {
    it = it->second.total_count == 0 ? out.histograms.erase(it)
                                     : std::next(it);
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.push_back(':');
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.push_back(':');
    out += std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out += ":{\"edges\":[";
    for (size_t i = 0; i < h.edges.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += std::to_string(h.edges[i]);
    }
    out += "],\"counts\":[";
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += std::to_string(h.counts[i]);
    }
    out += "],\"sum\":";
    out += std::to_string(h.sum);
    out += ",\"count\":";
    out += std::to_string(h.total_count);
    out.push_back('}');
  }
  out += "}}";
  return out;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::vector<long>& edges) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(edges);
  } else {
    DSWM_DCHECK(slot->edges() == edges);
  }
  return slot.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, c] : counters_) out.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.edges = h->edges();
    hs.counts = h->counts();
    hs.total_count = h->total_count();
    hs.sum = h->sum();
    out.histograms[name] = std::move(hs);
  }
  return out;
}

void MetricRegistry::ResetForTest() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->ResetForTest();
  for (auto& [name, g] : gauges_) g->ResetForTest();
  for (auto& [name, h] : histograms_) h->ResetForTest();
}

MetricRegistry& Registry() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace dswm

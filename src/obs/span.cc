#include "obs/span.h"

#include <chrono>
#include <string>

#include "obs/metrics.h"

namespace dswm {
namespace obs {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The per-thread phase path. A span appends ".<phase>" (or "<phase>" at the
// root) on open and truncates back on close, so the string is maintained
// incrementally -- no joins on the hot path.
std::string& ThreadPath() {
  thread_local std::string path;
  return path;
}

}  // namespace

Span::Span(const char* phase, double* external_seconds)
    : external_seconds_(external_seconds) {
  const bool enabled = Enabled();
  if (enabled) {
    std::string& path = ThreadPath();
    restore_len_ = static_cast<int>(path.size());
    if (!path.empty()) path.push_back('.');
    path += phase;
  }
  timing_ = enabled || external_seconds_ != nullptr;
  if (timing_) start_ns_ = NowNs();
}

Span::~Span() {
  if (!timing_) return;
  const int64_t elapsed_ns = NowNs() - start_ns_;
  if (external_seconds_ != nullptr) {
    *external_seconds_ += static_cast<double>(elapsed_ns) * 1e-9;
  }
  if (restore_len_ < 0) return;
  std::string& path = ThreadPath();
  {
    // Look the two metrics up by full path; spans are not hot enough (one
    // per driver phase, not per element) for the map lookup to matter.
    const std::string base = "span." + path;
    Registry().GetCounter(base + ".count")->Add(1);
    Registry().GetCounter(base + ".wall_ns")->Add(elapsed_ns);
  }
  path.resize(static_cast<size_t>(restore_len_));
}

}  // namespace obs
}  // namespace dswm

// RAII scoped timers with nested phase attribution.
//
// A Span names the phase the current thread is in; nesting builds a
// dot-joined path ("driver.observe" inside Span("driver") + Span("observe")
// becomes "driver.observe"). On destruction the span records two metrics
// into the global registry:
//
//   span.<path>.count      deterministic (one per span, any thread count)
//   span.<path>.wall_ns    wall-clock, nondeterministic by convention
//
// The phase stack is thread_local, so ThreadPool workers attribute their
// own spans independently; all recording folds into the shared registry via
// commutative atomic adds, which keeps the deterministic metrics identical
// between threaded and single-threaded runs.
//
// When metrics are disabled a Span costs one relaxed atomic load -- unless
// constructed with an external accumulator, in which case it always
// measures (callers like the driver need tracker wall time regardless of
// metrics) but still skips the registry.

#ifndef DSWM_OBS_SPAN_H_
#define DSWM_OBS_SPAN_H_

#include <cstdint>

namespace dswm {
namespace obs {

class Span {
 public:
  /// Opens phase `phase` (a string literal or otherwise outliving the
  /// span). No-op when metrics are disabled.
  explicit Span(const char* phase) : Span(phase, nullptr) {}

  /// Like above, but additionally accumulates elapsed seconds into
  /// `*external_seconds` on destruction -- always, even with metrics
  /// disabled. Pass nullptr for registry-only recording.
  Span(const char* phase, double* external_seconds);

  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* external_seconds_;
  int64_t start_ns_ = 0;
  // Length to truncate the thread-local path back to on close; -1 when the
  // span did not push a phase (metrics were disabled at construction).
  int restore_len_ = -1;
  bool timing_ = false;
};

}  // namespace obs
}  // namespace dswm

#endif  // DSWM_OBS_SPAN_H_

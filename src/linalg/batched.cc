#include "linalg/batched.h"

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sketch/frequent_directions.h"

namespace dswm {

namespace {

// Batch widths seen by the engine; recorded once per batch call, so the
// histogram is deterministic at any thread count.
void RecordBatchSize(int count) {
  DSWM_OBS_HISTOGRAM("linalg.batched_eigen.batch_size",
                     (std::vector<long>{1, 2, 4, 8, 16, 32, 64, 128}),
                     static_cast<long>(count));
}

}  // namespace

void BatchedDispatch(int count, const std::function<void(int)>& body) {
  if (count <= 0) return;
  if (count == 1) {
    // A lone problem keeps the inner kernels' own parallelism; the batch
    // itself contributes no dispatch.
    body(0);
    return;
  }
  ThreadPool::Global()->ParallelFor(count, [&body](int begin, int end) {
    ThreadPool::NestedInlineScope inline_scope;
    for (int i = begin; i < end; ++i) body(i);
  });
}

void BatchedFdShrink(FdShrinkJob* jobs, int count) {
  if (count <= 0) return;
  obs::Span span("batched_shrink");
  RecordBatchSize(count);
  BatchedDispatch(count, [jobs](int i) {
    FdShrinkJob& job = jobs[i];
    for (const FrequentDirections* src : job.sources) job.fd->Merge(*src);
    if (job.compact) job.fd->Compact();
  });
}

}  // namespace dswm

// Fixed-size worker pool with deterministic work partitioning.
//
// This is the only place in the codebase allowed to touch std::thread
// (enforced by tools/dswm_semlint.py rule raw-thread-outside-common). All
// parallelism flows through ParallelFor / Submit so that:
//   * the default configuration (1 thread) spawns no workers and runs
//     every task inline on the caller -- results are bit-identical to a
//     build with no threading code at all;
//   * ParallelFor splits [0, count) into at most num_threads() contiguous
//     chunks whose boundaries depend only on (count, num_threads), never
//     on scheduling, so repeated runs partition identically;
//   * no reduction is ever split across threads by the linalg kernels
//     (each output element is owned by exactly one chunk), so threaded
//     kernel results are bit-identical to single-threaded ones.
//
// The global pool is sized by DSWM_THREADS (env) or SetGlobalThreads()
// (a programmatic override) and defaults to single-threaded.
//
// Concurrency contract (machine-checked under clang -Wthread-safety):
// mu_ guards the queue, the in-flight count, and the stop flag; workers
// and submitters only touch them through it. num_threads_ and workers_
// are immutable after construction.

#ifndef DSWM_COMMON_THREAD_POOL_H_
#define DSWM_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"

namespace dswm {

/// A work-queue thread pool. `num_threads` counts the caller: a pool of N
/// spawns N-1 workers, and ParallelFor runs one chunk on the calling
/// thread. N == 1 means fully inline execution (no workers, no queue).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// Runs body(begin, end) over a deterministic partition of [0, count)
  /// into min(num_threads, count) contiguous chunks and blocks until all
  /// chunks finish. Chunk c covers [c*count/T, (c+1)*count/T). The caller
  /// executes chunk 0; workers execute the rest. `body` must be safe to
  /// call concurrently on disjoint ranges.
  void ParallelFor(int count, const std::function<void(int, int)>& body);

  /// Enqueues a task for asynchronous execution (runs inline when the
  /// pool is single-threaded). Pair with WaitIdle().
  void Submit(std::function<void()> task) DSWM_EXCLUDES(mu_);

  /// Blocks until every submitted task has completed.
  void WaitIdle() DSWM_EXCLUDES(mu_);

  /// Process-wide pool, sized by SetGlobalThreads() or, failing that, the
  /// DSWM_THREADS environment variable; defaults to 1 (inline execution).
  [[nodiscard]] static ThreadPool* Global();

  /// Resizes the global pool (overrides DSWM_THREADS). Must not be called
  /// while work is in flight. n < 1 is clamped to 1.
  static void SetGlobalThreads(int n);

  /// RAII: marks the current thread as inside a parallel region, so any
  /// nested ParallelFor runs inline instead of re-entering the queue.
  /// Worker threads carry this mark implicitly; the caller's chunk-0
  /// execution does not, which would let kernels invoked from inside a
  /// ParallelFor body submit a second round of tasks. The batched engine
  /// (linalg/batched.h) wraps each chunk body in this scope to guarantee
  /// exactly one pool dispatch per batch. Restores the previous state on
  /// destruction, so scopes nest.
  class NestedInlineScope {
   public:
    NestedInlineScope();
    ~NestedInlineScope();
    NestedInlineScope(const NestedInlineScope&) = delete;
    NestedInlineScope& operator=(const NestedInlineScope&) = delete;

   private:
    bool previous_;
  };

 private:
  void WorkerLoop() DSWM_EXCLUDES(mu_);

  const int num_threads_;
  Mutex mu_;
  CondVar work_ready_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ DSWM_GUARDED_BY(mu_);
  int in_flight_ DSWM_GUARDED_BY(mu_) = 0;  // queued + executing tasks
  bool stopping_ DSWM_GUARDED_BY(mu_) = false;
  // Written only by the constructor, joined by the destructor; never
  // touched while workers run.
  std::vector<std::thread> workers_;
};

}  // namespace dswm

#endif  // DSWM_COMMON_THREAD_POOL_H_

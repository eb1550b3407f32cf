// Batched small-matrix engine.
//
// Steady-state tracker cost is dominated by many *small* same-shape
// problems: one SymmetricEigen per FrequentDirections shrink, one shrink
// chain per mEH bucket merge, one PsdSqrt/error evaluation per query
// point. Each problem is far below the kernels' parallelism threshold, so
// running them one at a time leaves the pool idle. This engine packs a
// whole batch and distributes the *problems* (not the flops inside one
// problem) across threads.
//
// Contract, matching common/thread_pool.h:
//   * one pool dispatch per batch: the entire batch goes through a single
//     ThreadPool::ParallelFor, and each chunk body opens a
//     ThreadPool::NestedInlineScope so kernels invoked from inside a
//     problem never submit a second round of tasks;
//   * fixed per-index partitioning: problem i writes only result slot i,
//     and the per-problem computation is bit-identical at any thread
//     count, so batched == looped == single-threaded, byte for byte;
//   * a batch of one runs inline without entering the scope, keeping the
//     inner kernels' own parallelism (still at most one dispatch).

#ifndef DSWM_LINALG_BATCHED_H_
#define DSWM_LINALG_BATCHED_H_

#include <functional>
#include <vector>

namespace dswm {

class FrequentDirections;

/// Runs body(i) for every i in [0, count) through at most one ThreadPool
/// dispatch (none when count <= 1). body must write only state owned by
/// index i; bodies run concurrently on disjoint index ranges.
void BatchedDispatch(int count, const std::function<void(int)>& body);

/// One deferred FrequentDirections maintenance job: merge `sources` into
/// `fd` in order (each merge replays the embedded shrink schedule exactly
/// as a sequential Merge loop would), then optionally force a Compact.
/// Jobs in one batch must target distinct `fd` objects, and no job's
/// `sources` may alias another job's `fd`.
struct FdShrinkJob {
  FrequentDirections* fd = nullptr;
  std::vector<const FrequentDirections*> sources;
  bool compact = false;
};

/// Executes every job through one dispatch. Job i touches only jobs[i].fd,
/// so the batch is bit-identical to running the same Merge/Compact
/// sequence in a sequential loop.
void BatchedFdShrink(FdShrinkJob* jobs, int count);

}  // namespace dswm

#endif  // DSWM_LINALG_BATCHED_H_

// ThreadPool semantics: deterministic partitioning, inline single-thread
// execution, Submit/WaitIdle draining, nested-ParallelFor safety, and
// global-pool configuration. Test names carry "ThreadPool" so the TSan
// tree in tools/run_checks.sh can select them with a ctest regex.

#include "common/thread_pool.h"

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace dswm {
namespace {

class ScopedGlobalThreads {
 public:
  explicit ScopedGlobalThreads(int n) { ThreadPool::SetGlobalThreads(n); }
  ~ScopedGlobalThreads() { ThreadPool::SetGlobalThreads(1); }
};

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  // thread::id only observes identity, it spawns nothing.
  const std::thread::id caller =  // dswm-semlint: allow(raw-thread-outside-common)
      std::this_thread::get_id();
  std::thread::id seen;  // dswm-semlint: allow(raw-thread-outside-common)
  pool.ParallelFor(10, [&seen](int, int) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  // Inline Submit completes before returning; WaitIdle is then a no-op.
  EXPECT_TRUE(ran);
  pool.WaitIdle();
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 7}) {
    for (const int count : {0, 1, 3, 4, 5, 64, 1000}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(count);
      pool.ParallelFor(count, [&hits](int begin, int end) {
        for (int i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (int i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads
                                     << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, PartitionIsDeterministic) {
  // Chunk boundaries depend only on (count, num_threads); repeated runs
  // must produce the identical set of [begin, end) ranges.
  ThreadPool pool(4);
  const auto collect = [&pool] {
    std::mutex mu;
    std::set<std::pair<int, int>> ranges;
    pool.ParallelFor(103, [&mu, &ranges](int begin, int end) {
      std::lock_guard<std::mutex> lock(mu);
      ranges.emplace(begin, end);
    });
    return ranges;
  };
  const auto first = collect();
  EXPECT_EQ(first.size(), 4u);
  for (int rep = 0; rep < 10; ++rep) EXPECT_EQ(collect(), first);
  // Boundaries follow the documented c*count/T formula.
  std::set<std::pair<int, int>> expected;
  for (int c = 0; c < 4; ++c) {
    expected.emplace(c * 103 / 4, (c + 1) * 103 / 4);
  }
  EXPECT_EQ(first, expected);
}

TEST(ThreadPool, SubmitWaitIdleDrainsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 100);
  // WaitIdle is reusable: a second batch drains too.
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 110);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    // No WaitIdle: the destructor must finish the queue, not drop it.
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A ParallelFor body that itself calls ParallelFor (e.g. a threaded
  // kernel invoked from a threaded driver stage) must run the inner loop
  // inline on the worker rather than re-enqueueing and deadlocking.
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, [&pool, &inner_total](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      pool.ParallelFor(16, [&inner_total](int b, int e) {
        inner_total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, GlobalDefaultsToSingleThread) {
  // DSWM_THREADS is unset in the test environment, so the global pool must
  // be the deterministic single-threaded configuration.
  EXPECT_EQ(ThreadPool::Global()->num_threads(), 1);
}

TEST(ThreadPool, SetGlobalThreadsResizesAndClamps) {
  {
    ScopedGlobalThreads threads(3);
    EXPECT_EQ(ThreadPool::Global()->num_threads(), 3);
    std::atomic<int> total{0};
    ThreadPool::Global()->ParallelFor(30, [&total](int begin, int end) {
      total.fetch_add(end - begin);
    });
    EXPECT_EQ(total.load(), 30);
  }
  EXPECT_EQ(ThreadPool::Global()->num_threads(), 1);
  ThreadPool::SetGlobalThreads(0);  // clamps to 1
  EXPECT_EQ(ThreadPool::Global()->num_threads(), 1);
}

}  // namespace
}  // namespace dswm

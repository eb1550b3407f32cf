#include "common/thread_pool.h"

#include <cstdlib>
#include <memory>
#include <utility>

namespace dswm {

namespace {
// True on pool worker threads and inside a NestedInlineScope. Nested
// ParallelFor calls from inside a task run inline instead of re-entering
// the queue (which could deadlock when every worker blocks in WaitIdle).
thread_local bool tls_in_worker = false;
}  // namespace

ThreadPool::NestedInlineScope::NestedInlineScope() : previous_(tls_in_worker) {
  tls_in_worker = true;
}

ThreadPool::NestedInlineScope::~NestedInlineScope() {
  tls_in_worker = previous_;
}

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  DSWM_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    // Contract: destruction with queued work waits for it (WaitIdle
    // semantics), so no task is silently dropped.
    idle_.Wait(mu_, [this]() DSWM_REQUIRES(mu_) { return in_flight_ == 0; });
    stopping_ = true;
  }
  work_ready_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      work_ready_.Wait(mu_, [this]() DSWM_REQUIRES(mu_) {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(mu_);
      if (--in_flight_ == 0) idle_.NotifyAll();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (num_threads_ == 1) {
    task();
    return;
  }
  {
    MutexLock lock(mu_);
    DSWM_CHECK(!stopping_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_ready_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  if (num_threads_ == 1) return;
  MutexLock lock(mu_);
  idle_.Wait(mu_, [this]() DSWM_REQUIRES(mu_) { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(int count,
                             const std::function<void(int, int)>& body) {
  if (count <= 0) return;
  const int chunks = num_threads_ < count ? num_threads_ : count;
  if (chunks <= 1 || tls_in_worker) {
    body(0, count);
    return;
  }
  // Deterministic partition: chunk c covers [c*count/T, (c+1)*count/T).
  const auto boundary = [count, chunks](int c) {
    return static_cast<int>((static_cast<long>(c) * count) / chunks);
  };
  for (int c = 1; c < chunks; ++c) {
    const int begin = boundary(c);
    const int end = boundary(c + 1);
    Submit([&body, begin, end] { body(begin, end); });
  }
  body(0, boundary(1));  // the caller is thread 0
  WaitIdle();
}

namespace {

std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

Mutex& GlobalPoolMutex() {
  static Mutex mu;
  return mu;
}

int ThreadsFromEnv() {
  const char* env = std::getenv("DSWM_THREADS");
  if (env == nullptr) return 1;
  const int n = std::atoi(env);
  return n >= 1 ? n : 1;
}

}  // namespace

ThreadPool* ThreadPool::Global() {
  MutexLock lock(GlobalPoolMutex());
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(ThreadsFromEnv());
  return slot.get();
}

void ThreadPool::SetGlobalThreads(int n) {
  if (n < 1) n = 1;
  MutexLock lock(GlobalPoolMutex());
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  if (slot != nullptr && slot->num_threads() == n) return;
  slot = std::make_unique<ThreadPool>(n);
}

}  // namespace dswm

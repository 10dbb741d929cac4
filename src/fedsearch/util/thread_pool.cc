#include "fedsearch/util/thread_pool.h"

#include "fedsearch/util/check.h"
#include "fedsearch/util/metrics.h"

namespace fedsearch::util {

namespace {

// Cached registrations: one mutex-guarded name lookup per process, then
// every update is a relaxed atomic on the metric itself.
struct PoolMetrics {
  Counter& loops_inline = GlobalMetrics().counter("threadpool.loops_inline");
  Counter& loops_pooled = GlobalMetrics().counter("threadpool.loops_pooled");
  Counter& tasks_total = GlobalMetrics().counter("threadpool.tasks_total");
  Counter& tasks_stolen = GlobalMetrics().counter("threadpool.tasks_stolen");
  Histogram& loop_ns = GlobalMetrics().histogram("threadpool.loop_ns");
  Histogram& run_wait_ns =
      GlobalMetrics().histogram("threadpool.run_queue_wait_ns");
};

PoolMetrics& Metrics() {
  static PoolMetrics* m = new PoolMetrics();
  return *m;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t workers = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

// Lock-free reads of fn_/count_ here are published by ParallelFor under mu_
// and frozen for the loop's run_mu_ window; see the header.
void ThreadPool::Drain(bool stealing_worker) {
  // Count locally and publish once per drain so the accounting adds zero
  // atomics to the per-index claim loop.
  uint64_t claimed = 0;
  while (true) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) break;
    (*fn_)(i);
    ++claimed;
  }
  if (claimed > 0) {
    Metrics().tasks_total.Add(claimed);
    if (stealing_worker) Metrics().tasks_stolen.Add(claimed);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  while (true) {
    {
      MutexLock lock(mu_);
      while (!stop_ && generation_ == seen_generation) work_cv_.Wait(mu_);
      if (stop_) return;
      seen_generation = generation_;
    }
    Drain(/*stealing_worker=*/true);
    {
      MutexLock lock(mu_);
      if (--pending_workers_ == 0) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  FEDSEARCH_CHECK(fn != nullptr) << "ParallelFor requires a callable";
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Inline path touches no shared pool state, so it needs no run lock.
    Metrics().loops_inline.Add();
    ScopedTimer timer(Metrics().loop_ns);
    for (size_t i = 0; i < count; ++i) fn(i);
    Metrics().tasks_total.Add(count);
    return;
  }
  // One worker-assisted loop at a time (see header): later callers block
  // here until the current loop fully drains and resets fn_/count_.
  const uint64_t wait_start = MonotonicNanos();
  MutexLock run_lock(run_mu_);
  Metrics().run_wait_ns.Record(MonotonicNanos() - wait_start);
  Metrics().loops_pooled.Add();
  ScopedTimer timer(Metrics().loop_ns);
  {
    MutexLock lock(mu_);
    fn_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    pending_workers_ = workers_.size();
    ++generation_;
  }
  work_cv_.NotifyAll();
  Drain(/*stealing_worker=*/false);
  MutexLock lock(mu_);
  while (pending_workers_ != 0) done_cv_.Wait(mu_);
  fn_ = nullptr;
  count_ = 0;
}

}  // namespace fedsearch::util

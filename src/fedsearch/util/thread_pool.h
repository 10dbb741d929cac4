#ifndef FEDSEARCH_UTIL_THREAD_POOL_H_
#define FEDSEARCH_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "fedsearch/util/mutex.h"
#include "fedsearch/util/thread_annotations.h"

namespace fedsearch::util {

// Fixed-size pool of worker threads for data-parallel loops over database
// indices (the query-serving fan-out). The design constraints, in order:
//
//  1. Determinism. ParallelFor partitions work dynamically (an atomic index
//     counter), but callers must only write to per-index slots and reduce
//     after the join, so results are independent of the work/thread
//     assignment. The serving layer's bit-identical serial/parallel
//     guarantee rests on this contract.
//  2. No queue allocation per task. One loop is one "generation": workers
//     park on a condition variable between loops and chase a shared atomic
//     counter during one, so per-call overhead is two lock acquisitions,
//     not one allocation per index.
//  3. The calling thread participates, so ThreadPool(1) spawns no workers
//     and ParallelFor degenerates to the plain serial loop.
//
// Concurrent ParallelFor calls from distinct threads are safe: a run lock
// serializes them, so each loop runs exclusively and callers simply queue.
// (Concurrent SelectDatabases calls on one Metasearcher share its pool and
// rely on this.) ParallelFor is still not reentrant — fn must not call
// back into the same pool, which would self-deadlock on the run lock.
//
// Lock order: run_mu_ -> mu_ (ParallelFor holds run_mu_ across the whole
// loop and takes mu_ inside for the publication handshake); neither lock
// is ever taken while holding mu_. Both are terminal with respect to every
// other lock in the tree: pool code never calls out while holding them.
class ThreadPool {
 public:
  // `num_threads` counts the calling thread: the pool spawns
  // max(num_threads, 1) - 1 workers.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total threads that execute a ParallelFor (workers + caller).
  size_t num_threads() const { return workers_.size() + 1; }

  // Runs fn(i) for every i in [0, count), distributed over the pool, and
  // blocks until all indices completed. fn must not throw, must not call
  // back into this pool, and must only touch per-index state (see class
  // comment). With no workers (or count <= 1) the loop runs inline.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn)
      FEDSEARCH_EXCLUDES(run_mu_, mu_);

 private:
  void WorkerLoop() FEDSEARCH_EXCLUDES(mu_);
  // `stealing_worker` only labels the claimed-index metric (worker-claimed
  // indices count as "stolen" from the calling thread's serial order).
  // Reads fn_/count_ without mu_ — sound via the publication handshake
  // (see the members), which the analysis cannot model.
  void Drain(bool stealing_worker) FEDSEARCH_NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::thread> workers_;

  // Held for the whole of a worker-assisted ParallelFor: one loop at a
  // time owns fn_/count_/next_/generation_. Without it, concurrent callers
  // would race on the generation handshake (and workers could observe one
  // caller's fn_ reset while draining another's loop).
  // LOCK-FREE: guards no member directly — it is a capability over the
  // loop's exclusive time window; the loop data itself is published under
  // mu_ below.
  Mutex run_mu_ FEDSEARCH_ACQUIRED_BEFORE(mu_);

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  // Current generation's loop, guarded by mu_ for publication; workers read
  // them lock-free in Drain only after observing the generation bump under
  // mu_, and the publishing ParallelFor holds run_mu_ until every worker
  // reported done — so the values are frozen for the whole window in which
  // they are read (the handshake PR 3's race fix pinned).
  const std::function<void(size_t)>* fn_ FEDSEARCH_GUARDED_BY(mu_) = nullptr;
  size_t count_ FEDSEARCH_GUARDED_BY(mu_) = 0;
  std::atomic<size_t> next_{0};
  size_t pending_workers_ FEDSEARCH_GUARDED_BY(mu_) = 0;
  uint64_t generation_ FEDSEARCH_GUARDED_BY(mu_) = 0;
  bool stop_ FEDSEARCH_GUARDED_BY(mu_) = false;
};

}  // namespace fedsearch::util

#endif  // FEDSEARCH_UTIL_THREAD_POOL_H_

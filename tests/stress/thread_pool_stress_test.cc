#include "fedsearch/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

// TSan-targeted stress coverage for util::ThreadPool: concurrent
// ParallelFor callers sharing one pool (the Metasearcher's concurrent
// SelectDatabases shape), the shutdown handshake, and rapid
// generation turnover. Sizes are kept small — the suite also runs under
// ThreadSanitizer on small CI machines.

namespace fedsearch::util {
namespace {

TEST(ThreadPoolStressTest, ConcurrentCallersGetDisjointCorrectResults) {
  // Regression for the shared-pool race: before ParallelFor serialized
  // concurrent callers internally, two callers would clobber each other's
  // fn_/count_/generation_ handshake — workers could drain caller A's loop
  // with caller B's fn (corrupting slots) or read fn_ after A reset it.
  ThreadPool pool(4);
  constexpr size_t kCallers = 4;
  constexpr size_t kIterations = 25;
  constexpr size_t kCount = 64;

  std::vector<std::thread> callers;
  std::vector<size_t> bad_slots(kCallers, 0);
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<size_t> slots(kCount);
      for (size_t iter = 0; iter < kIterations; ++iter) {
        const size_t base = c * 1000000 + iter * 1000;
        pool.ParallelFor(kCount,
                         [&](size_t i) { slots[i] = base + i; });
        for (size_t i = 0; i < kCount; ++i) {
          if (slots[i] != base + i) ++bad_slots[c];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(bad_slots[c], 0u) << "caller " << c;
  }
}

TEST(ThreadPoolStressTest, EveryIndexRunsExactlyOnceUnderContention) {
  ThreadPool pool(3);
  constexpr size_t kCallers = 3;
  constexpr size_t kCount = 97;  // not a multiple of the thread count
  std::vector<std::thread> callers;
  std::atomic<size_t> failures{0};
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (size_t iter = 0; iter < 20; ++iter) {
        std::vector<std::atomic<int>> runs(kCount);
        pool.ParallelFor(kCount, [&](size_t i) {
          runs[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < kCount; ++i) {
          if (runs[i].load(std::memory_order_relaxed) != 1) ++failures;
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ThreadPoolStressTest, RapidConstructDestroyShutdownHandshake) {
  // Hammers the destructor path: workers parked on the condition variable
  // must observe stop_ and join without leaking or racing the notifier,
  // including when the pool did no work at all.
  for (size_t round = 0; round < 40; ++round) {
    ThreadPool pool(4);
    if (round % 2 == 0) {
      std::atomic<size_t> sum{0};
      pool.ParallelFor(16, [&](size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
      EXPECT_EQ(sum.load(), 16u * 15u / 2u);
    }
    // Odd rounds: destroy immediately with workers still parked.
  }
}

TEST(ThreadPoolStressTest, LateWorkersSkipClosedLoops) {
  // Loops this short usually end before a parked worker wakes: the caller
  // claims every index, closes the loop and returns without the worker.
  // A worker that wakes afterwards must skip that loop. Each loop's
  // callable and slots die with its iteration, so a late worker that ran
  // one would touch freed memory (ASan) or race the next iteration (TSan).
  ThreadPool pool(3);
  for (size_t round = 1; round <= 2000; ++round) {
    std::vector<size_t> slots(2, 0);
    pool.ParallelFor(slots.size(), [&slots, round](size_t i) {
      slots[i] += round;
    });
    for (size_t s : slots) ASSERT_EQ(s, round);
  }
}

TEST(ThreadPoolStressTest, ManyGenerationsSingleCaller) {
  // Generation-counter turnover: a worker that misses a notify must still
  // observe the bumped generation on the next wait predicate evaluation.
  ThreadPool pool(2);
  std::vector<int> slots(8, 0);
  for (size_t gen = 0; gen < 500; ++gen) {
    pool.ParallelFor(slots.size(), [&](size_t i) { slots[i] += 1; });
  }
  for (int v : slots) EXPECT_EQ(v, 500);
}

}  // namespace
}  // namespace fedsearch::util

#include "fedsearch/util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace fedsearch::util {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroAndTinyCounts) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(1, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
  // Fewer indices than threads.
  pool.ParallelFor(3, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPoolTest, BackToBackLoopsReuseWorkers) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(total.load(), 50L * (63L * 64L / 2));
}

TEST(ThreadPoolTest, PerIndexSlotsMatchSerialResult) {
  // The determinism contract of the serving layer: per-index writes plus a
  // post-join reduction give the same result for any thread count.
  const size_t n = 2048;
  std::vector<double> serial(n), parallel(n);
  const auto work = [](size_t i) {
    double x = static_cast<double>(i) + 1.0;
    for (int k = 0; k < 10; ++k) x = x * 1.0000001 + 0.5;
    return x;
  };
  ThreadPool pool1(1);
  pool1.ParallelFor(n, [&](size_t i) { serial[i] = work(i); });
  ThreadPool pool8(8);
  pool8.ParallelFor(n, [&](size_t i) { parallel[i] = work(i); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(serial[i], parallel[i]);
}

}  // namespace
}  // namespace fedsearch::util

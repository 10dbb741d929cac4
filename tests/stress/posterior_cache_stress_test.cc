#include "fedsearch/core/posterior_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

// TSan-targeted stress coverage for core::PosteriorCache: many threads
// hitting one shard (first-build vs hit races), threads spread across
// shards, caches derived while readers use their shards, and the stats
// counters under contention.

namespace fedsearch::core {
namespace {

TEST(PosteriorCacheStressTest, ConcurrentGetSameKeyBuildsOneGrid) {
  PosteriorCache cache(1);
  constexpr size_t kThreads = 4;
  constexpr size_t kCallsPerThread = 50;
  std::vector<std::thread> threads;
  std::vector<const DocFrequencyPosterior*> first(kThreads, nullptr);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t call = 0; call < kCallsPerThread; ++call) {
        const DocFrequencyPosterior* p =
            cache.Get(0, /*sample_df=*/3, /*sample_size=*/100,
                      /*db_size=*/10000.0, /*gamma=*/-2.0,
                      /*grid_points=*/32);
        if (first[t] == nullptr) first[t] = p;
        // Nothing is ever erased: every call returns one grid.
        EXPECT_EQ(p, first[t]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(first[t], first[0]);
  EXPECT_EQ(cache.size(), 1u);
  const PosteriorCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kCallsPerThread);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(PosteriorCacheStressTest, ConcurrentGetAcrossShardsAndKeys) {
  constexpr size_t kDatabases = 8;
  constexpr size_t kThreads = 4;
  constexpr size_t kDistinctDf = 6;
  constexpr size_t kRounds = 20;
  PosteriorCache cache(kDatabases);
  std::vector<std::thread> threads;
  std::atomic<size_t> mismatches{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t db = 0; db < kDatabases; ++db) {
          const size_t df = (t + round + db) % kDistinctDf;
          const DocFrequencyPosterior* p =
              cache.Get(db, df, /*sample_size=*/80, /*db_size=*/5000.0,
                        /*gamma=*/-1.5, /*grid_points=*/16);
          // Support is per-key immutable; a torn/duplicate build would
          // show as an empty or inconsistent grid.
          if (p->support().empty()) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(cache.size(), kDatabases * kDistinctDf);
  const PosteriorCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds * kDatabases);
  EXPECT_EQ(stats.misses, kDatabases * kDistinctDf);
}

TEST(PosteriorCacheStressTest, DerivationWithLaggingReaders) {
  // One thread derives a cache per epoch, each re-probing database 0 and
  // sharing database 1; reader threads keep querying the caches they
  // hold, some of them several epochs behind. A derivation must never
  // disturb a shard a reader is using: every grid comes back fully built,
  // including those of caches the writer has already let go.
  struct Published {
    std::shared_ptr<PosteriorCache> cache;
    uint64_t epoch = 0;
  };
  // Database 0's sample at epoch e: the parameters differ per epoch.
  const auto db_size = [](uint64_t epoch) {
    return 1000.0 + 10.0 * static_cast<double>(epoch);
  };
  constexpr size_t kEpochs = 40;
  constexpr size_t kReaders = 3;
  std::shared_ptr<PosteriorCache> current = std::make_shared<PosteriorCache>(2);
  std::mutex mu;
  Published published{current, 0};
  std::atomic<bool> done{false};
  std::atomic<size_t> lookups{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Published held;
      size_t round = 0;
      while (!done.load(std::memory_order_acquire)) {
        // Reader 0 follows every epoch; the others lag, refreshing their
        // cache only every few rounds.
        if (held.cache == nullptr || t == 0 || round % (4 * t) == 0) {
          std::lock_guard<std::mutex> lock(mu);
          held = published;
        }
        ++round;
        const DocFrequencyPosterior* p = held.cache->Get(
            0, /*sample_df=*/2 + t, /*sample_size=*/50, db_size(held.epoch),
            /*gamma=*/-2.0, /*grid_points=*/8, held.epoch);
        const DocFrequencyPosterior* shared = held.cache->Get(
            1, /*sample_df=*/t, /*sample_size=*/40, /*db_size=*/800.0,
            /*gamma=*/-2.0, /*grid_points=*/8);
        // Use the grids after the writer may have derived past them: TSan
        // checks the sharing, the asserts that each grid was fully built.
        EXPECT_EQ(p->weights().size(), p->support().size());
        EXPECT_FALSE(p->support().empty());
        EXPECT_FALSE(shared->support().empty());
        lookups.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (uint64_t e = 1; e <= kEpochs; ++e) {
    // Let the readers overlap every derivation.
    while (lookups.load(std::memory_order_acquire) < e * kReaders) {
      std::this_thread::yield();
    }
    (void)current->Get(0, /*sample_df=*/1, /*sample_size=*/50,
                       db_size(e - 1), /*gamma=*/-2.0, /*grid_points=*/8,
                       e - 1);
    current = std::make_shared<PosteriorCache>(*current,
                                               std::vector<size_t>{0});
    std::lock_guard<std::mutex> lock(mu);
    published = Published{current, e};
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  const PosteriorCache::Stats stats = current->stats();
  EXPECT_GE(stats.evictions, kEpochs - 1);
}

TEST(PosteriorCacheStressTest, SizeSnapshotsWhileWritersRun) {
  PosteriorCache cache(4);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    size_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const size_t now = cache.size();
      EXPECT_GE(now, last);  // nothing is erased: growth only
      last = now;
    }
  });
  for (size_t df = 0; df < 30; ++df) {
    for (size_t db = 0; db < 4; ++db) {
      (void)cache.Get(db, df, /*sample_size=*/64, /*db_size=*/2000.0,
                      /*gamma=*/-2.0, /*grid_points=*/8);
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(cache.size(), 4u * 30u);
}

}  // namespace
}  // namespace fedsearch::core

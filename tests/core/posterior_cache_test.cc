#include "fedsearch/core/posterior_cache.h"

#include <gtest/gtest.h>

#include "fedsearch/util/check.h"

#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"

namespace fedsearch::core {
namespace {

TEST(PosteriorCacheTest, MissThenHitPerKey) {
  PosteriorCache cache(3);
  const std::shared_ptr<const DocFrequencyPosterior> a =
      cache.Get(/*database=*/0, /*sample_df=*/5, /*sample_size=*/100,
                /*db_size=*/10000, /*gamma=*/-2.0, /*grid_points=*/64);
  const std::shared_ptr<const DocFrequencyPosterior> b =
      cache.Get(0, 5, 100, 10000, -2.0, 64);
  EXPECT_EQ(a.get(), b.get());  // one grid per key, pointer-stable
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PosteriorCacheTest, KeysAreScopedPerDatabase) {
  PosteriorCache cache(2);
  const std::shared_ptr<const DocFrequencyPosterior> a =
      cache.Get(0, 5, 100, 10000, -2.0, 64);
  const std::shared_ptr<const DocFrequencyPosterior> b =
      cache.Get(1, 5, 200, 50000, -3.0, 64);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PosteriorCacheTest, CachedGridMatchesDirectConstruction) {
  PosteriorCache cache(1);
  const std::shared_ptr<const DocFrequencyPosterior> cached =
      cache.Get(0, 30, 100, 1000, -2.0, 128);
  const DocFrequencyPosterior direct(30, 100, 1000, -2.0, 128);
  ASSERT_EQ(cached->support().size(), direct.support().size());
  for (size_t i = 0; i < cached->support().size(); ++i) {
    EXPECT_EQ(cached->support()[i], direct.support()[i]);
    EXPECT_EQ(cached->weights()[i], direct.weights()[i]);
  }
}

TEST(PosteriorCacheTest, ResetDropsEntriesAndCounters) {
  PosteriorCache cache(1);
  (void)cache.Get(0, 1, 10, 100, -2.0, 16);
  (void)cache.Get(0, 1, 10, 100, -2.0, 16);
  cache.Reset(4);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.num_databases(), 4u);
}

TEST(PosteriorCacheTest, HitRate) {
  PosteriorCache cache(1);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);
  (void)cache.Get(0, 2, 10, 100, -2.0, 16);
  (void)cache.Get(0, 2, 10, 100, -2.0, 16);
  (void)cache.Get(0, 2, 10, 100, -2.0, 16);
  (void)cache.Get(0, 3, 10, 100, -2.0, 16);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

// The serving-layer guarantee: Evaluate through the cache is bit-identical
// to Evaluate without it.
TEST(PosteriorCacheTest, CachedEvaluateIsBitIdenticalToUncached) {
  sampling::SampleResult s;
  s.sample_size = 300;
  s.estimated_db_size = 50000;
  s.mandelbrot_alpha = -1.2;
  s.summary.set_num_documents(50000);
  s.summary.SetWord("present", summary::WordStats{5000, 6000});
  s.sample_df["present"] = 30;

  AdaptiveSummarySelector selector;
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  const selection::Query query{{"present", "missing"}};

  PosteriorCache cache(1);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng_cached(seed);
    util::Rng rng_plain(seed);
    const auto cached = selector.Evaluate(query, s, bgloss, ctx, rng_cached,
                                          &cache, 0);
    const auto plain = selector.Evaluate(query, s, bgloss, ctx, rng_plain);
    EXPECT_EQ(cached.mean, plain.mean);
    EXPECT_EQ(cached.stddev, plain.stddev);
    EXPECT_EQ(cached.use_shrinkage, plain.use_shrinkage);
  }
  // Two words per evaluation, five evaluations: after the first, every
  // lookup hits.
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 8u);
}

TEST(PosteriorCacheTest, PosteriorsOfOneDatabaseShareOneGridBasis) {
  // The flat-grid contract: every posterior of a shard is built from the
  // same pinned PosteriorGridBasis (support / prior / log-base arrays are
  // word-independent), whether the basis was pinned ahead of time or
  // created by the first Get.
  PosteriorCache cache(2);
  cache.PinParams(/*database=*/0, /*sample_size=*/100, /*db_size=*/10000.0,
                  /*gamma=*/-2.0, /*grid_points=*/64);
  const auto a = cache.Get(0, 5, 100, 10000, -2.0, 64);
  const auto b = cache.Get(0, 9, 100, 10000, -2.0, 64);
  EXPECT_EQ(&a->basis(), &b->basis());
  // A shard without PinParams pins on first use and shares thereafter.
  const auto c = cache.Get(1, 5, 100, 20000, -3.0, 64);
  const auto d = cache.Get(1, 9, 100, 20000, -3.0, 64);
  EXPECT_EQ(&c->basis(), &d->basis());
  EXPECT_NE(&a->basis(), &c->basis());
  EXPECT_DOUBLE_EQ(a->basis().db_size(), 10000.0);
}

TEST(PosteriorCacheTest, PinParamsCostsNoCacheTraffic) {
  PosteriorCache cache(1);
  cache.PinParams(0, 100, 10000.0, -2.0, 64);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.size(), 0u);  // bases are not posterior entries
}

TEST(PosteriorCacheTest, NewerEpochEvictsShardEntries) {
  PosteriorCache cache(2);
  (void)cache.Get(0, 5, 100, 10000, -2.0, 64, /*epoch=*/0);
  (void)cache.Get(0, 9, 100, 10000, -2.0, 64, /*epoch=*/0);
  ASSERT_EQ(cache.size(), 2u);
  // Epoch 1 arrives: the shard's epoch-0 grids are stale and go away. The
  // refreshed summary may carry different parameters — that must NOT trip
  // the param-drift DCHECK, because eviction resets the pinned params too.
  const auto fresh = cache.Get(0, 5, 120, 20000, -2.5, 64, /*epoch=*/1);
  EXPECT_NE(fresh, nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 1u);
  // Other shards are untouched: invalidation is per-database.
  (void)cache.Get(1, 5, 100, 10000, -2.0, 64, /*epoch=*/0);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PosteriorCacheTest, StaleEpochGetsPrivateGridWithoutEviction) {
  PosteriorCache cache(1);
  const auto current = cache.Get(0, 5, 100, 10000, -2.0, 64, /*epoch=*/3);
  // A reader still scoring against epoch 2 neither pollutes nor evicts the
  // shard: it gets a privately built grid, counted as a stale miss (not a
  // miss — hits + misses stays the same-epoch traffic).
  const auto stale = cache.Get(0, 5, 90, 9000, -2.0, 64, /*epoch=*/2);
  EXPECT_NE(stale.get(), current.get());
  EXPECT_EQ(cache.stats().stale_misses, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
  // The current epoch's entry still hits.
  const auto again = cache.Get(0, 5, 100, 10000, -2.0, 64, /*epoch=*/3);
  EXPECT_EQ(again.get(), current.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PosteriorCacheTest, EvictedGridStaysAliveForHolders) {
  // The RCU half of the contract: eviction must not free a grid a reader
  // is still iterating. The shared_ptr keeps it alive past the epoch swap.
  PosteriorCache cache(1);
  const auto held = cache.Get(0, 5, 100, 10000, -2.0, 64, /*epoch=*/0);
  const double support_front = held->support().front();
  (void)cache.Get(0, 5, 100, 10000, -2.0, 64, /*epoch=*/1);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(held->support().front(), support_front);  // still valid
  EXPECT_EQ(held.use_count(), 1);                     // cache let go
}

#if FEDSEARCH_DCHECK_IS_ON
TEST(PosteriorCacheDeathTest, ParameterDriftIsFatal) {
  // The cache key is (database, sample_df) only: parameters that drift
  // between calls would silently hand back grids built from stale values.
  PosteriorCache cache(1);
  (void)cache.Get(0, 5, 100, 10000, -2.0, 64);
  EXPECT_DEATH((void)cache.Get(0, 5, 100, 20000, -2.0, 64),
               "posterior params changed for database 0");
  EXPECT_DEATH((void)cache.Get(0, 5, 200, 10000, -2.0, 64),
               "posterior params changed");
  EXPECT_DEATH((void)cache.Get(0, 5, 100, 10000, -1.5, 64),
               "posterior params changed");
  EXPECT_DEATH((void)cache.Get(0, 5, 100, 10000, -2.0, 32),
               "posterior params changed");
}

TEST(PosteriorCacheDeathTest, PinnedParameterMismatchIsFatal) {
  PosteriorCache cache(1);
  cache.PinParams(0, 100, 10000.0, -2.0, 64);
  EXPECT_DEATH(cache.PinParams(0, 100, 12000.0, -2.0, 64),
               "posterior params changed");
  EXPECT_DEATH((void)cache.Get(0, 5, 100, 12000, -2.0, 64),
               "posterior params changed");
}
#endif  // FEDSEARCH_DCHECK_IS_ON

}  // namespace
}  // namespace fedsearch::core

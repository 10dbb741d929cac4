#include "fedsearch/core/posterior_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "fedsearch/util/check.h"

#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"

namespace fedsearch::core {
namespace {

TEST(PosteriorCacheTest, MissThenHitPerKey) {
  PosteriorCache cache(3);
  const DocFrequencyPosterior* a =
      cache.Get(/*database=*/0, /*sample_df=*/5, /*sample_size=*/100,
                /*db_size=*/10000, /*gamma=*/-2.0, /*grid_points=*/64);
  const DocFrequencyPosterior* b = cache.Get(0, 5, 100, 10000, -2.0, 64);
  EXPECT_EQ(a, b);  // one grid per key, pointer-stable
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PosteriorCacheTest, KeysAreScopedPerDatabase) {
  PosteriorCache cache(2);
  const DocFrequencyPosterior* a = cache.Get(0, 5, 100, 10000, -2.0, 64);
  const DocFrequencyPosterior* b = cache.Get(1, 5, 200, 50000, -3.0, 64);
  EXPECT_NE(a, b);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PosteriorCacheTest, CachedGridMatchesDirectConstruction) {
  PosteriorCache cache(1);
  const DocFrequencyPosterior* cached = cache.Get(0, 30, 100, 1000, -2.0, 128);
  const DocFrequencyPosterior direct(30, 100, 1000, -2.0, 128);
  ASSERT_EQ(cached->support().size(), direct.support().size());
  for (size_t i = 0; i < cached->support().size(); ++i) {
    EXPECT_EQ(cached->support()[i], direct.support()[i]);
    EXPECT_EQ(cached->weights()[i], direct.weights()[i]);
  }
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

TEST(PosteriorCacheTest, DerivedCacheSharesUnchangedShards) {
  PosteriorCache prior(2);
  const DocFrequencyPosterior* kept = prior.Get(0, 5, 100, 10000, -2.0, 64);
  const DocFrequencyPosterior* replaced =
      prior.Get(1, 5, 100, 20000, -3.0, 64);
  (void)prior.Get(1, 9, 100, 20000, -3.0, 64);
  ASSERT_EQ(prior.size(), 3u);

  // Database 1 is re-probed: its two grids are dropped from the derived
  // cache, and only from it.
  PosteriorCache next(prior, {1});
  EXPECT_EQ(next.num_databases(), 2u);
  EXPECT_EQ(next.size(), 1u);
  EXPECT_EQ(next.stats().evictions, 2u);
  // Database 0's shard is shared: the same grid, served as a hit.
  EXPECT_EQ(next.Get(0, 5, 100, 10000, -2.0, 64), kept);
  // Database 1's shard starts empty and takes the new sample's parameters
  // and summary epoch without tripping the parameter check.
  const DocFrequencyPosterior* fresh =
      next.Get(1, 5, 120, 30000, -2.5, 64, /*epoch=*/1);
  EXPECT_NE(fresh, replaced);
  EXPECT_DOUBLE_EQ(fresh->basis().db_size(), 30000.0);
  EXPECT_EQ(next.size(), 2u);
  // The prior still serves its own database-1 grid.
  EXPECT_EQ(prior.Get(1, 5, 100, 20000, -3.0, 64), replaced);
  EXPECT_EQ(prior.size(), 3u);
  // Both caches count into one set of counters.
  const PosteriorCache::Stats a = prior.stats();
  const PosteriorCache::Stats b = next.stats();
  EXPECT_EQ(a.hits, 2u);
  EXPECT_EQ(a.misses, 4u);
  EXPECT_EQ(a.evictions, 2u);
  EXPECT_EQ(b.hits, a.hits);
  EXPECT_EQ(b.misses, a.misses);
  EXPECT_EQ(b.evictions, a.evictions);
}

TEST(PosteriorCacheTest, GridOutlivesDerivation) {
  // A grid stays valid for the life of the cache that returned it: a
  // derived cache that re-probes its database, and that cache's end, leave
  // it alone.
  PosteriorCache cache(1);
  const DocFrequencyPosterior* held = cache.Get(0, 5, 100, 10000, -2.0, 64);
  const std::vector<double> weights = held->weights();
  {
    PosteriorCache next(cache, {0});
    EXPECT_EQ(next.stats().evictions, 1u);
    (void)next.Get(0, 5, 120, 20000, -2.5, 64, /*epoch=*/1);
  }
  EXPECT_EQ(held->weights(), weights);  // still valid
  EXPECT_EQ(cache.Get(0, 5, 100, 10000, -2.0, 64), held);
  EXPECT_EQ(cache.size(), 1u);
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

TEST(PosteriorCacheDeathTest, EpochMismatchIsFatal) {
  // A shard serves one summary epoch: a caller scoring with another
  // epoch's sample must use the cache derived for it.
  PosteriorCache cache(1);
  cache.PinParams(0, 100, 10000.0, -2.0, 64, /*epoch=*/3);
  EXPECT_DEATH((void)cache.Get(0, 5, 100, 10000, -2.0, 64, /*epoch=*/2),
               "posterior params changed");
  EXPECT_DEATH((void)cache.Get(0, 5, 100, 10000, -2.0, 64, /*epoch=*/4),
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

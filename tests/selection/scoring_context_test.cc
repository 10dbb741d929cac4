#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/scoring.h"

namespace fedsearch::selection {
namespace {

summary::ContentSummary MakeDb(double n,
                               std::vector<std::pair<std::string, double>>
                                   words) {
  summary::ContentSummary s;
  s.set_num_documents(n);
  for (const auto& [w, df] : words) {
    s.SetWord(w, summary::WordStats{df, df * 2});
  }
  return s;
}

TEST(ScoringContextDeathTest, CoriAbortsOnTermTheContextWasNotFilledFor) {
  const summary::ContentSummary a = MakeDb(100, {{"x", 40}, {"y", 3}});
  const summary::ContentSummary b = MakeDb(300, {{"x", 10}});
  ScoringContext ctx;
  ctx.ranked_summaries = {&a, &b};
  CoriScorer cori;
  EXPECT_DEATH((void)cori.Score(Query{{"x"}}, a, ctx),
               "CORI scored term \"x\" from a context not filled for it");
  // Filled for another query: "y" is still missing.
  PrepareContextForQuery(Query{{"x"}}, ctx);
  EXPECT_DEATH((void)cori.Score(Query{{"x", "y"}}, a, ctx),
               "CORI scored term \"y\"");
  const double df = 5.0;
  double belief = 0.0;
  EXPECT_DEATH(cori.TermContributionTable(Query{{"y"}}, 0, a, ctx, &df, 1,
                                          &belief),
               "CORI scored term \"y\"");
}

TEST(ScoringContextTest, CachedCfValues) {
  const summary::ContentSummary a = MakeDb(100, {{"x", 40}});
  const summary::ContentSummary b = MakeDb(300, {{"x", 10}, {"y", 2}});
  ScoringContext ctx;
  ctx.ranked_summaries = {&a, &b};
  PrepareContextForQuery(Query{{"x", "y", "absent"}}, ctx);
  EXPECT_EQ(ctx.cached_cf.at("x"), 2u);
  EXPECT_EQ(ctx.cached_cf.at("y"), 1u);
  EXPECT_EQ(ctx.cached_cf.at("absent"), 0u);
  // total_tokens: a = 80, b = 24; mean over the two summaries.
  EXPECT_DOUBLE_EQ(ctx.cached_mean_cw, (80.0 + 24.0) / 2.0);
}

TEST(ScoringContextTest, EmptyRankedSetIsSafe) {
  ScoringContext ctx;
  PrepareContextForQuery(Query{{"x"}}, ctx);
  EXPECT_EQ(ctx.cached_cf.at("x"), 0u);
  EXPECT_EQ(ctx.cached_mean_cw, 1.0);
}

// ------------------------------------------- FillContext vs direct count --

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// A summary whose total_tokens() is the sum of `ctfs` (one filler word
// each), on top of `words` (df, ctf = 2·df).
summary::ContentSummary MakeDbWithTokens(
    double n, std::vector<std::pair<std::string, double>> words,
    std::vector<double> ctfs) {
  summary::ContentSummary s = MakeDb(n, std::move(words));
  for (size_t i = 0; i < ctfs.size(); ++i) {
    s.SetWord("filler" + std::to_string(i), summary::WordStats{1, ctfs[i]});
  }
  return s;
}

// Expects the context's statistics to equal cf(w) and mean cw counted
// straight from context.ranked_summaries, bit for bit.
void ExpectMatchesDirectCount(const Query& query,
                              const ScoringContext& context) {
  const std::vector<const summary::SummaryView*>& ranked =
      context.ranked_summaries;
  for (const std::string& w : query.terms) {
    size_t cf = 0;
    for (const summary::SummaryView* s : ranked) {
      if (s->ContainsRounded(w)) ++cf;
    }
    ASSERT_EQ(context.cached_cf.count(w), 1u) << w;
    EXPECT_EQ(context.cached_cf.at(w), cf) << w;
  }
  double mean = 1.0;
  if (!ranked.empty()) {
    double total = 0.0;
    for (const summary::SummaryView* s : ranked) total += s->total_tokens();
    mean = total / static_cast<double>(ranked.size());
  }
  EXPECT_EQ(Bits(context.cached_mean_cw), Bits(mean))
      << context.cached_mean_cw << " vs " << mean;
}

class FillContextTest : public ::testing::Test {
 protected:
  // The cache is built over {a, b, c}; a2, b2, c2 replace them position by
  // position. "s" sits below the rounding threshold in b (df 0.4 of 1000
  // documents rounds to absent) but not in b2, "x" leaves with b2, and the
  // fractional token counts make the mean's reduction order matter.
  FillContextTest()
      : a_(MakeDbWithTokens(100, {{"x", 40}, {"y", 3}}, {0.1, 0.2})),
        b_(MakeDbWithTokens(1000, {{"x", 10}, {"s", 0.4}}, {0.3})),
        c_(MakeDbWithTokens(50, {{"z", 5}}, {0.7, 0.11})),
        a2_(MakeDbWithTokens(100, {{"y", 9}}, {0.13})),
        b2_(MakeDbWithTokens(1000, {{"s", 7}, {"w", 2}}, {0.17, 0.19})),
        c2_(MakeDbWithTokens(60, {{"x", 6}, {"z", 1}}, {0.23})),
        cache_({&a_, &b_, &c_}) {}

  const Query query_{{"x", "y", "z", "s", "w", "absent", "x"}};
  summary::ContentSummary a_, b_, c_, a2_, b2_, c2_;
  ScoringStatisticsCache cache_;
};

TEST_F(FillContextTest, NoPositionDiffers) {
  ScoringContext ctx;
  ctx.ranked_summaries = {&a_, &b_, &c_};
  cache_.FillContext(query_, ctx);
  ExpectMatchesDirectCount(query_, ctx);
  EXPECT_EQ(Bits(ctx.cached_mean_cw), Bits(cache_.mean_cw()));
}

TEST_F(FillContextTest, SomePositionsDiffer) {
  ScoringContext ctx;
  ctx.ranked_summaries = {&a_, &b2_, &c_};
  cache_.FillContext(query_, ctx);
  ExpectMatchesDirectCount(query_, ctx);
}

TEST_F(FillContextTest, EveryPositionDiffers) {
  ScoringContext ctx;
  ctx.ranked_summaries = {&a2_, &b2_, &c2_};
  cache_.FillContext(query_, ctx);
  ExpectMatchesDirectCount(query_, ctx);
}

TEST_F(FillContextTest, DefaultConstructedCacheCountsEveryPosition) {
  ScoringContext ctx;
  ctx.ranked_summaries = {&a_, &b2_, &c_};
  ScoringStatisticsCache().FillContext(query_, ctx);
  ExpectMatchesDirectCount(query_, ctx);
  // PrepareContextForQuery is the same fill.
  ScoringContext prepared;
  prepared.ranked_summaries = ctx.ranked_summaries;
  PrepareContextForQuery(query_, prepared);
  EXPECT_EQ(prepared.cached_cf, ctx.cached_cf);
  EXPECT_EQ(Bits(prepared.cached_mean_cw), Bits(ctx.cached_mean_cw));
}

TEST_F(FillContextTest, EmptyRankedSet) {
  ScoringContext ctx;
  ScoringStatisticsCache().FillContext(query_, ctx);
  ExpectMatchesDirectCount(query_, ctx);
  ScoringContext scanned_empty;
  ScoringStatisticsCache(std::vector<const summary::SummaryView*>{})
      .FillContext(query_, scanned_empty);
  ExpectMatchesDirectCount(query_, scanned_empty);
}

TEST_F(FillContextTest, RefillReplacesThePreviousQuerysStatistics) {
  ScoringContext ctx;
  ctx.ranked_summaries = {&a_, &b2_, &c_};
  cache_.FillContext(query_, ctx);
  const Query other{{"z"}};
  cache_.FillContext(other, ctx);
  ExpectMatchesDirectCount(other, ctx);
  EXPECT_EQ(ctx.cached_cf.size(), 1u);
}

using FillContextDeathTest = FillContextTest;

TEST_F(FillContextDeathTest, SizeMismatchAborts) {
  ScoringContext ctx;
  ctx.ranked_summaries = {&a_, &b_};
  EXPECT_DEATH(cache_.FillContext(query_, ctx),
               "statistics cover 3 summaries, the context ranks 2");
}

TEST(ScoringStatisticsCacheTest, RebuiltMatchesScanningConstructorExactly) {
  const summary::ContentSummary a0 = MakeDb(100, {{"x", 40}, {"y", 3}});
  const summary::ContentSummary b0 = MakeDb(300, {{"x", 10}, {"z", 7}});
  const summary::ContentSummary c0 = MakeDb(50, {{"z", 5}});
  const std::vector<const summary::SummaryView*> before = {&a0, &b0, &c0};
  const ScoringStatisticsCache prior(before);

  // Refresh replaces b: loses z (its count must drop AND the entry must
  // disappear when it reaches zero elsewhere), gains w.
  const summary::ContentSummary b1 = MakeDb(280, {{"x", 12}, {"w", 4}});
  const std::vector<const summary::SummaryView*> after = {&a0, &b1, &c0};

  const ScoringStatisticsCache incremental =
      ScoringStatisticsCache::Rebuilt(prior, after, before, {1});
  const ScoringStatisticsCache scanned(after);

  EXPECT_EQ(incremental.num_summaries(), scanned.num_summaries());
  EXPECT_EQ(incremental.vocabulary_size(), scanned.vocabulary_size());
  // mean_cw is a full index-order float recompute: bit-identical, not
  // merely close.
  EXPECT_EQ(incremental.mean_cw(), scanned.mean_cw());
  for (const char* word : {"x", "y", "z", "w", "absent"}) {
    EXPECT_EQ(incremental.CollectionFrequency(word),
              scanned.CollectionFrequency(word))
        << word;
  }
}

TEST(ScoringStatisticsCacheTest, RebuiltWithNoChangesIsTheIdentity) {
  const summary::ContentSummary a = MakeDb(100, {{"x", 40}});
  const summary::ContentSummary b = MakeDb(300, {{"y", 2}});
  const std::vector<const summary::SummaryView*> set = {&a, &b};
  const ScoringStatisticsCache prior(set);
  const ScoringStatisticsCache rebuilt =
      ScoringStatisticsCache::Rebuilt(prior, set, set, {});
  EXPECT_EQ(rebuilt.mean_cw(), prior.mean_cw());
  EXPECT_EQ(rebuilt.vocabulary_size(), prior.vocabulary_size());
  EXPECT_EQ(rebuilt.CollectionFrequency("x"), 1u);
  EXPECT_EQ(rebuilt.CollectionFrequency("y"), 1u);
}

TEST(ScoringStatisticsCacheTest, RebuiltChainMatchesScanAfterManyRefreshes) {
  // Chained incremental rebuilds (the live-refresh steady state) must not
  // accumulate any error relative to scanning.
  std::vector<summary::ContentSummary> owned;
  owned.reserve(8);
  owned.push_back(MakeDb(100, {{"x", 1}, {"y", 2}}));
  owned.push_back(MakeDb(200, {{"y", 3}, {"z", 4}}));
  owned.push_back(MakeDb(300, {{"z", 5}}));
  std::vector<const summary::SummaryView*> current = {&owned[0], &owned[1],
                                                      &owned[2]};
  ScoringStatisticsCache cache{current};
  for (int round = 0; round < 4; ++round) {
    const size_t victim = static_cast<size_t>(round) % 3;
    owned.push_back(MakeDb(100.0 + 17.0 * round,
                           {{round % 2 == 0 ? "x" : "w", 2.0 + round}}));
    std::vector<const summary::SummaryView*> next = current;
    next[victim] = &owned.back();
    cache = ScoringStatisticsCache::Rebuilt(cache, next, current, {victim});
    current = next;
  }
  const ScoringStatisticsCache scanned(current);
  EXPECT_EQ(cache.mean_cw(), scanned.mean_cw());
  EXPECT_EQ(cache.vocabulary_size(), scanned.vocabulary_size());
  for (const char* word : {"x", "y", "z", "w"}) {
    EXPECT_EQ(cache.CollectionFrequency(word),
              scanned.CollectionFrequency(word))
        << word;
  }
}

}  // namespace
}  // namespace fedsearch::selection

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/lm.h"
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

TEST(ScoringContextDeathTest, CoriAbortsOnAContextPreparedForAShorterQuery) {
  const summary::ContentSummary a = MakeDb(100, {{"x", 40}, {"y", 3}});
  const summary::ContentSummary b = MakeDb(300, {{"x", 10}});
  ScoringContext ctx;
  ctx.ranked_summaries = {&a, &b};
  CoriScorer cori;
  EXPECT_DEATH((void)cori.Score(Query{{"x"}}, a, ctx),
               "CORI scored a 1-term query from a context prepared for 0 "
               "terms");
  // Prepared for a one-term query: a second position is missing.
  cori.PrepareContext(Query{{"x"}}, ScoringStatisticsCache(), ctx);
  EXPECT_DEATH((void)cori.Score(Query{{"x", "y"}}, a, ctx),
               "CORI scored a 2-term query from a context prepared for 1 "
               "terms");
  const double df = 5.0;
  double belief = 0.0;
  EXPECT_DEATH(cori.TermContributionTable(Query{{"x", "y"}}, 1, a, ctx, &df,
                                          1, &belief),
               "CORI scored a 2-term query");
}

TEST(ScoringContextDeathTest, LmAbortsOnAContextPreparedForAShorterQuery) {
  const summary::ContentSummary a = MakeDb(100, {{"x", 40}, {"y", 3}});
  ScoringContext ctx;
  ctx.ranked_summaries = {&a};
  ctx.global_summary = &a;
  LmScorer lm;
  EXPECT_DEATH((void)lm.Score(Query{{"x"}}, a, ctx),
               "LM scored a 1-term query from a context prepared for 0 "
               "terms");
  lm.PrepareContext(Query{{"x"}}, ScoringStatisticsCache(), ctx);
  EXPECT_DEATH((void)lm.Score(Query{{"x", "y"}}, a, ctx),
               "LM scored a 2-term query from a context prepared for 1 "
               "terms");
  EXPECT_DEATH((void)lm.DefaultScore(Query{{"x", "y"}}, a, ctx),
               "LM scored a 2-term query");
  const double df = 5.0;
  double factor = 0.0;
  EXPECT_DEATH(lm.TermContributionTable(Query{{"x", "y"}}, 1, a, ctx, &df, 1,
                                        &factor),
               "LM scored a 2-term query");
}

TEST(ScoringContextTest, CachedCfValues) {
  const summary::ContentSummary a = MakeDb(100, {{"x", 40}});
  const summary::ContentSummary b = MakeDb(300, {{"x", 10}, {"y", 2}});
  ScoringContext ctx;
  ctx.ranked_summaries = {&a, &b};
  PrepareContextForQuery(Query{{"x", "y", "absent"}}, ctx);
  ASSERT_EQ(ctx.term_cf.size(), 3u);
  EXPECT_EQ(ctx.term_cf[0], 2u);  // x
  EXPECT_EQ(ctx.term_cf[1], 1u);  // y
  EXPECT_EQ(ctx.term_cf[2], 0u);  // absent
  // total_tokens: a = 80, b = 24; mean over the two summaries.
  EXPECT_DOUBLE_EQ(ctx.mean_cw, (80.0 + 24.0) / 2.0);
}

TEST(ScoringContextTest, EmptyRankedSetIsSafe) {
  ScoringContext ctx;
  PrepareContextForQuery(Query{{"x"}}, ctx);
  ASSERT_EQ(ctx.term_cf.size(), 1u);
  EXPECT_EQ(ctx.term_cf[0], 0u);
  EXPECT_EQ(ctx.mean_cw, 1.0);
}

TEST(ScoringContextTest, BglossPrepareContextLeavesTheStatisticsEmpty) {
  const summary::ContentSummary a = MakeDb(100, {{"x", 40}});
  ScoringContext ctx;
  ctx.ranked_summaries = {&a};
  ctx.global_summary = &a;
  BglossScorer().PrepareContext(Query{{"x", "y"}},
                                ScoringStatisticsCache({&a}), ctx);
  EXPECT_TRUE(ctx.term_cf.empty());
  EXPECT_TRUE(ctx.term_global_prob.empty());
}

TEST(ScoringContextTest, CoriPrepareContextFillsOnlyCorpusStatistics) {
  const summary::ContentSummary a = MakeDb(100, {{"x", 40}});
  const summary::ContentSummary b = MakeDb(300, {{"x", 10}, {"y", 2}});
  const summary::ContentSummary g = MakeDb(400, {{"x", 40}, {"y", 10}});
  const Query query{{"y", "x", "y", "absent"}};
  const ScoringStatisticsCache cache({&a, &b});
  ScoringContext ctx;
  ctx.ranked_summaries = {&b, &a};
  ctx.global_summary = &g;
  ScoringContext full = ctx;
  CoriScorer().PrepareContext(query, cache, ctx);
  cache.FillContext(query, full);
  EXPECT_TRUE(ctx.term_global_prob.empty());
  EXPECT_EQ(ctx.term_cf, full.term_cf);
  EXPECT_EQ(ctx.mean_cw, full.mean_cw);
}

TEST(ScoringContextTest, LmPrepareContextFillsOnlyGlobalProbabilities) {
  const summary::ContentSummary a = MakeDb(100, {{"x", 40}});
  const summary::ContentSummary g = MakeDb(400, {{"x", 40}, {"y", 10}});
  ScoringContext ctx;
  ctx.ranked_summaries = {&a};
  ctx.global_summary = &g;
  LmScorer().PrepareContext(Query{{"y", "x", "y", "absent"}},
                            ScoringStatisticsCache({&a}), ctx);
  EXPECT_TRUE(ctx.term_cf.empty());
  const std::vector<double> expected = {g.ProbToken("y"), g.ProbToken("x"),
                                        g.ProbToken("y"), 0.0};
  EXPECT_EQ(ctx.term_global_prob, expected);
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

// Expects the context's statistics to equal cf(w), mean cw and p̂(w|G)
// counted straight from context.ranked_summaries and
// context.global_summary, position by position, bit for bit.
void ExpectMatchesDirectCount(const Query& query,
                              const ScoringContext& context) {
  const std::vector<const summary::SummaryView*>& ranked =
      context.ranked_summaries;
  ASSERT_EQ(context.term_cf.size(), query.terms.size());
  ASSERT_EQ(context.term_global_prob.size(), query.terms.size());
  for (size_t i = 0; i < query.terms.size(); ++i) {
    const std::string& w = query.terms[i];
    size_t cf = 0;
    for (const summary::SummaryView* s : ranked) {
      if (s->ContainsRounded(w)) ++cf;
    }
    EXPECT_EQ(context.term_cf[i], cf) << w;
    const double global = context.global_summary != nullptr
                              ? context.global_summary->ProbToken(w)
                              : 0.0;
    EXPECT_EQ(Bits(context.term_global_prob[i]), Bits(global)) << w;
  }
  double mean = 1.0;
  if (!ranked.empty()) {
    double total = 0.0;
    for (const summary::SummaryView* s : ranked) total += s->total_tokens();
    mean = total / static_cast<double>(ranked.size());
  }
  EXPECT_EQ(Bits(context.mean_cw), Bits(mean))
      << context.mean_cw << " vs " << mean;
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
  EXPECT_EQ(Bits(ctx.mean_cw), Bits(cache_.mean_cw()));
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
  EXPECT_EQ(prepared.term_cf, ctx.term_cf);
  EXPECT_EQ(Bits(prepared.mean_cw), Bits(ctx.mean_cw));
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
  EXPECT_EQ(ctx.term_cf.size(), 1u);
  EXPECT_EQ(ctx.term_global_prob.size(), 1u);
}

// The contract of ScoringFunction::PrepareContext: a context the scorer
// prepared scores exactly as one FillContext filled with every statistic.
using PrepareContextTest = FillContextTest;

TEST_F(PrepareContextTest, EveryScorerScoresAsAfterTheFullFill) {
  // query_ repeats "x" and holds "absent", which no summary holds; the
  // cache's own set and a set with b replaced both run.
  const summary::ContentSummary global =
      summary::ContentSummary::AggregateCategory({&a_, &b_, &c_});
  const CoriScorer cori;
  const LmScorer lm;
  const BglossScorer bgloss;
  const ScoringFunction* scorers[] = {&cori, &lm, &bgloss};
  const std::vector<const summary::SummaryView*> sets[] = {{&a_, &b_, &c_},
                                                           {&a_, &b2_, &c_}};
  constexpr size_t kPoints = 5;
  const double dfs[kPoints] = {0.0, 0.4, 1.0, 7.0, 40.0};
  for (const ScoringFunction* scorer : scorers) {
    for (const std::vector<const summary::SummaryView*>& set : sets) {
      ScoringContext prepared;
      prepared.ranked_summaries = set;
      prepared.global_summary = &global;
      ScoringContext full = prepared;
      scorer->PrepareContext(query_, cache_, prepared);
      cache_.FillContext(query_, full);
      for (const summary::SummaryView* db : set) {
        EXPECT_EQ(Bits(scorer->Score(query_, *db, prepared)),
                  Bits(scorer->Score(query_, *db, full)))
            << scorer->name();
        EXPECT_EQ(Bits(scorer->DefaultScore(query_, *db, prepared)),
                  Bits(scorer->DefaultScore(query_, *db, full)))
            << scorer->name();
        for (size_t i = 0; i < query_.terms.size(); ++i) {
          double from_prepared[kPoints];
          double from_full[kPoints];
          scorer->TermContributionTable(query_, i, *db, prepared, dfs,
                                        kPoints, from_prepared);
          scorer->TermContributionTable(query_, i, *db, full, dfs, kPoints,
                                        from_full);
          for (size_t g = 0; g < kPoints; ++g) {
            EXPECT_EQ(Bits(from_prepared[g]), Bits(from_full[g]))
                << scorer->name() << " term " << i << " point " << g;
          }
        }
      }
    }
  }
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

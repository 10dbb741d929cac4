#include "fedsearch/selection/flat_ranker.h"

#include <gtest/gtest.h>

#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"

namespace fedsearch::selection {
namespace {

summary::ContentSummary MakeDb(double n, double df_word) {
  summary::ContentSummary s;
  s.set_num_documents(n);
  if (df_word > 0) s.SetWord("word", summary::WordStats{df_word, df_word});
  return s;
}

TEST(FlatRankerTest, RanksByDecreasingScore) {
  const summary::ContentSummary strong = MakeDb(100, 80);
  const summary::ContentSummary weak = MakeDb(100, 10);
  std::vector<const summary::SummaryView*> dbs = {&weak, &strong};
  ScoringContext ctx;
  ctx.ranked_summaries = dbs;
  BglossScorer bgloss;
  const auto ranking = RankDatabases(Query{{"word"}}, dbs, bgloss, ctx);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].database, 1u);
  EXPECT_EQ(ranking[1].database, 0u);
  EXPECT_GT(ranking[0].score, ranking[1].score);
}

TEST(FlatRankerTest, OmitsDefaultScoredDatabases) {
  // A database with no query evidence is "not selected" (Section 6.2).
  const summary::ContentSummary has = MakeDb(100, 50);
  const summary::ContentSummary empty = MakeDb(100, 0);
  std::vector<const summary::SummaryView*> dbs = {&has, &empty};
  ScoringContext ctx;
  ctx.ranked_summaries = dbs;
  BglossScorer bgloss;
  const auto ranking = RankDatabases(Query{{"word"}}, dbs, bgloss, ctx);
  ASSERT_EQ(ranking.size(), 1u);
  EXPECT_EQ(ranking[0].database, 0u);
}

TEST(FlatRankerTest, CoriOmitsAllMissTooDatabases) {
  const summary::ContentSummary has = MakeDb(100, 50);
  const summary::ContentSummary empty = MakeDb(100, 0);
  std::vector<const summary::SummaryView*> dbs = {&has, &empty};
  ScoringContext ctx;
  ctx.ranked_summaries = dbs;
  PrepareContextForQuery(Query{{"word"}}, ctx);
  CoriScorer cori;
  const auto ranking = RankDatabases(Query{{"word"}}, dbs, cori, ctx);
  ASSERT_EQ(ranking.size(), 1u);  // empty db scores exactly 0.4 = default
  EXPECT_EQ(ranking[0].database, 0u);
}

TEST(FlatRankerTest, DeterministicTiesByIndex) {
  const summary::ContentSummary a = MakeDb(100, 50);
  const summary::ContentSummary b = MakeDb(100, 50);
  std::vector<const summary::SummaryView*> dbs = {&a, &b};
  ScoringContext ctx;
  ctx.ranked_summaries = dbs;
  BglossScorer bgloss;
  const auto ranking = RankDatabases(Query{{"word"}}, dbs, bgloss, ctx);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].database, 0u);
  EXPECT_EQ(ranking[1].database, 1u);
}

TEST(FlatRankerTest, EmptyInputs) {
  ScoringContext ctx;
  BglossScorer bgloss;
  EXPECT_TRUE(RankDatabases(Query{{"word"}}, {}, bgloss, ctx).empty());
}

}  // namespace
}  // namespace fedsearch::selection

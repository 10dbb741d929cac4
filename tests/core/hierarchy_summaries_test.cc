#include "fedsearch/core/hierarchy_summaries.h"

#include <gtest/gtest.h>

#include "fedsearch/core/shrinkage.h"

namespace fedsearch::core {
namespace {

summary::ContentSummary MakeDb(
    double n, std::vector<std::tuple<std::string, double, double>> words) {
  summary::ContentSummary s;
  s.set_num_documents(n);
  for (const auto& [w, df, ctf] : words) {
    s.SetWord(w, summary::WordStats{df, ctf});
  }
  return s;
}

class HierarchySummariesTest : public ::testing::Test {
 protected:
  HierarchySummariesTest() : hierarchy_("Root") {
    health_ = hierarchy_.AddCategory("Health", hierarchy_.root());
    heart_ = hierarchy_.AddCategory("Heart", health_);
    sports_ = hierarchy_.AddCategory("Sports", hierarchy_.root());

    // db0, db1 under Heart; db2 under Health directly; db3 under Sports.
    dbs_.push_back(MakeDb(100, {{"cardiac", 50, 80}, {"shared", 10, 10}}));
    dbs_.push_back(MakeDb(300, {{"cardiac", 60, 90}, {"hypertension", 30, 40}}));
    dbs_.push_back(MakeDb(200, {{"clinical", 80, 100}, {"shared", 20, 20}}));
    dbs_.push_back(MakeDb(400, {{"goal", 200, 300}}));
    for (const auto& d : dbs_) ptrs_.push_back(&d);
    classifications_ = {heart_, heart_, health_, sports_};
    hs_ = std::make_unique<HierarchySummaries>(&hierarchy_, ptrs_,
                                               classifications_);
  }

  corpus::TopicHierarchy hierarchy_;
  corpus::CategoryId health_, heart_, sports_;
  std::vector<summary::ContentSummary> dbs_;
  std::vector<const summary::ContentSummary*> ptrs_;
  std::vector<corpus::CategoryId> classifications_;
  std::unique_ptr<HierarchySummaries> hs_;
};

TEST_F(HierarchySummariesTest, AggregatesBottomUp) {
  // Heart aggregates db0 + db1.
  const auto& heart = hs_->aggregate(heart_);
  EXPECT_DOUBLE_EQ(heart.num_documents(), 400.0);
  EXPECT_DOUBLE_EQ(heart.DocFrequency("cardiac"), 110.0);
  // Health adds db2 on top of the Heart subtree.
  const auto& health = hs_->aggregate(health_);
  EXPECT_DOUBLE_EQ(health.num_documents(), 600.0);
  EXPECT_DOUBLE_EQ(health.DocFrequency("clinical"), 80.0);
  EXPECT_DOUBLE_EQ(health.DocFrequency("cardiac"), 110.0);
  // Root covers everything.
  const auto& root = hs_->root_aggregate();
  EXPECT_DOUBLE_EQ(root.num_documents(), 1000.0);
  EXPECT_DOUBLE_EQ(root.DocFrequency("goal"), 200.0);
}

TEST_F(HierarchySummariesTest, Equation1SizeWeighting) {
  // p̂(cardiac|Heart) = (0.5*100 + 0.2*300) / 400 = 110/400.
  EXPECT_DOUBLE_EQ(hs_->aggregate(heart_).ProbDoc("cardiac"), 110.0 / 400.0);
}

// Shrinkage takes each level of a database's chain exclusive of the next
// (core/shrinkage.h). A ShrunkSummary with all of its weight on chain
// level 0 reads that level alone: p̂_R(w|D) = p̂(w|level 0).
TEST_F(HierarchySummariesTest, ChainLevelExcludesChildSubtree) {
  // On the chain Health → Heart → db0, Health's level is db2 only.
  const ShrunkSummary level(
      {&hs_->aggregate(health_), &hs_->aggregate(heart_),
       &hs_->database_summary(0)},
      {0.0, 1.0, 0.0, 0.0}, /*uniform_probability=*/0.0);
  EXPECT_DOUBLE_EQ(level.MixtureProbDoc("clinical"), 80.0 / 200.0);
  EXPECT_DOUBLE_EQ(level.MixtureProbDoc("cardiac"), 0.0);
  EXPECT_DOUBLE_EQ(level.MixtureProbDoc("shared"), 20.0 / 200.0);
}

TEST_F(HierarchySummariesTest, ChainLevelExcludesDatabase) {
  // On the chain Heart → db0, Heart's level is db1 only.
  const ShrunkSummary level(
      {&hs_->aggregate(heart_), &hs_->database_summary(0)}, {0.0, 1.0, 0.0},
      /*uniform_probability=*/0.0);
  EXPECT_DOUBLE_EQ(level.MixtureProbDoc("cardiac"), 60.0 / 300.0);
  EXPECT_DOUBLE_EQ(level.MixtureProbDoc("hypertension"), 30.0 / 300.0);
  EXPECT_DOUBLE_EQ(level.MixtureProbDoc("shared"), 0.0);
}

TEST_F(HierarchySummariesTest, UniformProbabilityIsInverseVocabulary) {
  // Union vocabulary: cardiac, shared, hypertension, clinical, goal = 5.
  EXPECT_DOUBLE_EQ(hs_->uniform_probability(), 1.0 / 5.0);
}

TEST_F(HierarchySummariesTest, ChainIterationSkipsZeroedWords) {
  // Health's level on Health → Heart → db0 zeroes "cardiac".
  const ShrunkSummary level(
      {&hs_->aggregate(health_), &hs_->aggregate(heart_),
       &hs_->database_summary(0)},
      {0.0, 1.0, 0.0, 0.0}, /*uniform_probability=*/0.0);
  size_t count = 0;
  level.ForEachWord([&](const std::string& w, const summary::WordStats& s) {
    EXPECT_GT(s.df + s.ctf, 0.0) << w;
    ++count;
  });
  EXPECT_EQ(count, 2u);  // clinical + shared
}

TEST_F(HierarchySummariesTest, SelfSubtractedLevelIsEmpty) {
  // A level subtracted from itself holds nothing: no mass for any of its
  // words, no record, and no word counted into the vocabulary beyond the
  // database level's own.
  const summary::ContentSummary& heart = hs_->aggregate(heart_);
  const ShrunkSummary level({&heart, &heart}, {0.0, 1.0, 0.0},
                            /*uniform_probability=*/0.0);
  for (const char* w : {"cardiac", "shared", "hypertension"}) {
    EXPECT_DOUBLE_EQ(level.DocFrequency(w), 0.0) << w;
    EXPECT_DOUBLE_EQ(level.TokenFrequency(w), 0.0) << w;
  }
  size_t records = 0;
  level.ForEachWord(
      [&](const std::string&, const summary::WordStats&) { ++records; });
  EXPECT_EQ(records, 0u);
  EXPECT_EQ(level.vocabulary_size(), heart.vocabulary_size());
}

TEST_F(HierarchySummariesTest, EmptyCategoryAggregatesToEmpty) {
  // Sports has one db; a fresh category with none aggregates to empty.
  corpus::TopicHierarchy h2("Root");
  const corpus::CategoryId lonely = h2.AddCategory("Lonely", h2.root());
  HierarchySummaries hs(&h2, {}, {});
  EXPECT_DOUBLE_EQ(hs.aggregate(lonely).num_documents(), 0.0);
  EXPECT_EQ(hs.uniform_probability(), 0.0);
}

using HierarchySummariesDeathTest = HierarchySummariesTest;

TEST_F(HierarchySummariesDeathTest, ShortClassificationVectorAborts) {
  const std::vector<corpus::CategoryId> classifications = {heart_, heart_,
                                                           health_};
  EXPECT_DEATH((void)HierarchySummaries(&hierarchy_, ptrs_, classifications),
               "3 classifications for 4 database summaries");
}

}  // namespace
}  // namespace fedsearch::core

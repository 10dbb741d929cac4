#include "fedsearch/core/shrinkage.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>

#include <gtest/gtest.h>

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

// ----------------------------------------------------------- ShrunkSummary

class ShrunkSummaryTest : public ::testing::Test {
 protected:
  // The chain category_ → db_: the category level is category_ − db_,
  // clamped at zero (900 documents, 670 tokens; db-only clamps to 0).
  ShrunkSummaryTest()
      : category_(MakeDb(1000, {{"shared", 400, 600}, {"cat-only", 100, 150}})),
        db_(MakeDb(100, {{"shared", 30, 60}, {"db-only", 10, 20}})),
        shrunk_({&category_, &db_}, {0.1, 0.4, 0.5}, /*uniform=*/0.001) {}

  summary::ContentSummary category_;
  summary::ContentSummary db_;
  ShrunkSummary shrunk_;
};

TEST_F(ShrunkSummaryTest, MixtureProbMatchesDefinition4) {
  // p̂_R(w|D) = λ0·u + λ1·p̂(w|C − D) + λ2·p̂(w|D).
  EXPECT_NEAR(shrunk_.MixtureProbDoc("shared"),
              0.1 * 0.001 + 0.4 * (370.0 / 900.0) + 0.5 * 0.3, 1e-12);
  EXPECT_NEAR(shrunk_.MixtureProbDoc("cat-only"),
              0.1 * 0.001 + 0.4 * (100.0 / 900.0), 1e-12);
  EXPECT_NEAR(shrunk_.MixtureProbDoc("db-only"),
              0.1 * 0.001 + 0.5 * 0.1, 1e-12);
  // Unknown words still get the uniform floor: "every word in any content
  // summary" has non-zero probability (Section 5.3).
  EXPECT_NEAR(shrunk_.MixtureProbDoc("never-seen"), 0.1 * 0.001, 1e-15);
}

TEST_F(ShrunkSummaryTest, SizeComesFromDatabase) {
  EXPECT_DOUBLE_EQ(shrunk_.num_documents(), 100.0);
  EXPECT_DOUBLE_EQ(shrunk_.total_tokens(), 80.0);
}

TEST_F(ShrunkSummaryTest, DocFrequencyScalesMixture) {
  EXPECT_NEAR(shrunk_.DocFrequency("db-only"),
              shrunk_.MixtureProbDoc("db-only") * 100.0, 1e-12);
}

TEST_F(ShrunkSummaryTest, ForEachWordCoversUnionOnce) {
  size_t count = 0;
  bool saw_cat_only = false;
  shrunk_.ForEachWord([&](const std::string& w, const summary::WordStats& s) {
    ++count;
    saw_cat_only |= w == "cat-only";
    EXPECT_GT(s.df, 0.0);
  });
  EXPECT_EQ(count, 3u);  // shared, cat-only, db-only
  EXPECT_TRUE(saw_cat_only);
  EXPECT_EQ(shrunk_.vocabulary_size(), 3u);
}

TEST_F(ShrunkSummaryTest, LambdasAccessible) {
  EXPECT_EQ(shrunk_.lambdas().size(), 3u);
  EXPECT_DOUBLE_EQ(shrunk_.lambdas()[0], 0.1);
}

// Definition 4 by hand on a root → child → database chain, every level
// subtracted explicitly and every sum written in the order the view adds
// it: point lookups add the uniform first, iteration adds it last.
TEST(ShrunkSummaryChainTest, MatchesExplicitlySubtractedLevelsBitwise) {
  // "db-only" only the database holds, "root-only" only the root holds,
  // "child-all" sits in the child in all 30 of its root documents (so the
  // root level holds none of it), and "nowhere" no summary holds.
  const summary::ContentSummary root =
      MakeDb(1000, {{"root-only", 50, 80}, {"child-all", 30, 45}});
  const summary::ContentSummary child = MakeDb(400, {{"child-all", 30, 45}});
  const summary::ContentSummary db =
      MakeDb(100, {{"db-only", 7, 11}, {"child-all", 12, 20}});
  const std::vector<double> lambdas = {0.05, 0.15, 0.3, 0.5};
  const double uniform = 0.25;
  const ShrunkSummary shrunk({&root, &child, &db}, lambdas, uniform);

  // The levels root − child, child − db and db: |C|, cw, and each word's
  // df and ctf, clamped at zero. child-all's 25 tokens exceed the child
  // level's 14, so its token probability clamps at 1.
  const double documents[] = {1000.0 - 400.0, 400.0 - 100.0, 100.0};
  const double tokens[] = {125.0 - 45.0, 45.0 - 31.0, 31.0};
  const std::map<std::string, std::array<summary::WordStats, 3>> words = {
      {"db-only", {{{0.0, 0.0}, {0.0, 0.0}, {7.0, 11.0}}}},
      {"root-only", {{{50.0, 80.0}, {0.0, 0.0}, {0.0, 0.0}}}},
      {"child-all", {{{0.0, 0.0}, {30.0 - 12.0, 45.0 - 20.0}, {12.0, 20.0}}}},
      {"nowhere", {{{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}}}},
  };
  // start + Σ_i λ_{i+1}·min(1, x_i / total_i), in level order.
  const auto mixture = [&](const std::array<summary::WordStats, 3>& levels,
                           bool doc, double start) {
    double p = start;
    for (size_t i = 0; i < 3; ++i) {
      const double x = doc ? levels[i].df : levels[i].ctf;
      const double total = doc ? documents[i] : tokens[i];
      p += lambdas[i + 1] * std::min(1.0, x / total);
    }
    return p;
  };
  const double u = lambdas[0] * uniform;
  for (const auto& [w, levels] : words) {
    EXPECT_EQ(shrunk.DocFrequency(w),
              std::min(1.0, mixture(levels, true, u)) * 100.0)
        << w;
    EXPECT_EQ(shrunk.TokenFrequency(w),
              std::min(1.0, mixture(levels, false, u)) * 31.0)
        << w;
  }
  std::map<std::string, summary::WordStats> records;
  shrunk.ForEachWord([&](const std::string& w, const summary::WordStats& s) {
    EXPECT_TRUE(records.emplace(w, s).second) << w;
  });
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(records.count("nowhere"), 0u);
  for (const auto& [w, stats] : records) {
    const std::array<summary::WordStats, 3>& levels = words.at(w);
    EXPECT_EQ(stats.df, std::min(1.0, mixture(levels, true, 0.0) + u) * 100.0)
        << w;
    EXPECT_EQ(stats.ctf, std::min(1.0, mixture(levels, false, 0.0) + u) * 31.0)
        << w;
  }
}

TEST(ShrunkSummaryStatsTest, ReproducesRecordedFrequenciesBitwise) {
  // Stats computes the document and token mixtures in one pass over one
  // probe per chain summary. Its df and ctf are the DocFrequency and
  // TokenFrequency doubles the separate per-statistic mixtures produced,
  // recorded here as hex literals, over a three-level chain (with a
  // token probability clamped at 1) and a two-level one.
  struct Expected {
    const char* word;
    double df;
    double ctf;
  };
  {
    const summary::ContentSummary root =
        MakeDb(1000, {{"root-only", 50, 80}, {"child-all", 30, 45}});
    const summary::ContentSummary child =
        MakeDb(400, {{"child-all", 30, 45}});
    const summary::ContentSummary db =
        MakeDb(100, {{"db-only", 7, 11}, {"child-all", 12, 20}});
    const ShrunkSummary shrunk({&root, &child, &db}, {0.05, 0.15, 0.3, 0.5},
                               0.25);
    for (const Expected& e : {Expected{"db-only", 0x1.3p+2,
                                       0x1.78ccccccccccep+2},
                              Expected{"root-only", 0x1.4p+1,
                                       0x1.4266666666667p+2},
                              Expected{"child-all", 0x1.2199999999999p+3,
                                       0x1.3afffffffffffp+4},
                              Expected{"nowhere", 0x1.4p+0,
                                       0x1.8cccccccccccdp-2}}) {
      const summary::WordStats stats = shrunk.Stats(e.word);
      EXPECT_EQ(stats.df, e.df) << e.word;
      EXPECT_EQ(stats.ctf, e.ctf) << e.word;
      EXPECT_EQ(shrunk.DocFrequency(e.word), e.df) << e.word;
      EXPECT_EQ(shrunk.TokenFrequency(e.word), e.ctf) << e.word;
    }
  }
  {
    const summary::ContentSummary category =
        MakeDb(1000, {{"shared", 400, 600}, {"cat-only", 100, 150}});
    const summary::ContentSummary db =
        MakeDb(100, {{"shared", 30, 60}, {"db-only", 10, 20}});
    const ShrunkSummary shrunk({&category, &db}, {0.1, 0.4, 0.5}, 0.001);
    for (const Expected& e :
         {Expected{"shared", 0x1.f7456789abcdep+4, 0x1.be6471966bc7ap+5},
          Expected{"cat-only", 0x1.1d159e26af37dp+2, 0x1.cb04fb81b24c7p+2},
          Expected{"db-only", 0x1.40a3d70a3d70bp+2, 0x1.404189374bc6ap+3},
          Expected{"never-seen", 0x1.47ae147ae147bp-7,
                   0x1.0624dd2f1a9fcp-7}}) {
      const summary::WordStats stats = shrunk.Stats(e.word);
      EXPECT_EQ(stats.df, e.df) << e.word;
      EXPECT_EQ(stats.ctf, e.ctf) << e.word;
    }
  }
}

// -------------------------------------------------------- FitMixtureWeights

TEST(FitMixtureWeightsTest, LambdasFormADistribution) {
  const summary::ContentSummary db =
      MakeDb(100, {{"a", 50, 60}, {"b", 10, 12}, {"c", 1, 1}});
  const summary::ContentSummary cat =
      MakeDb(500, {{"a", 200, 240}, {"b", 60, 70}, {"d", 40, 50}});
  const std::vector<double> lambdas =
      FitMixtureWeights({&cat, &db}, 1e-4, /*sample_size=*/100);
  ASSERT_EQ(lambdas.size(), 3u);
  EXPECT_NEAR(std::accumulate(lambdas.begin(), lambdas.end(), 0.0), 1.0,
              1e-9);
  for (double l : lambdas) {
    EXPECT_GE(l, 0.0);
    EXPECT_LE(l, 1.0);
  }
}

TEST(FitMixtureWeightsTest, IrrelevantCategoryGetsTinyWeight) {
  const summary::ContentSummary db =
      MakeDb(100, {{"a", 60, 80}, {"b", 30, 40}, {"c", 10, 12}});
  const summary::ContentSummary matching =
      MakeDb(400, {{"a", 240, 300}, {"b", 120, 160}, {"c", 40, 50}});
  // The root adds an unrelated 400-document subtree to `matching`, so its
  // level holds only the unrelated words.
  const summary::ContentSummary root =
      MakeDb(800, {{"a", 240, 300},
                   {"b", 120, 160},
                   {"c", 40, 50},
                   {"x", 200, 220},
                   {"y", 100, 110}});
  const std::vector<double> lambdas =
      FitMixtureWeights({&root, &matching, &db}, 1e-4, 100);
  // Order: uniform, root (unrelated), matching, database.
  EXPECT_LT(lambdas[1], 0.05);
  EXPECT_GT(lambdas[2] + lambdas[3], 0.8);
}

TEST(FitMixtureWeightsTest, TextbookIterationWithoutDeletionDegenerates) {
  // Documents why the cross-validated fit exists: with sample_size == 0
  // (no deletion), EM run to convergence hands everything to the database
  // component.
  const summary::ContentSummary db =
      MakeDb(100, {{"a", 50, 60}, {"b", 10, 12}, {"c", 2, 2}});
  // The category's level (cat − db) overlaps but is pointwise less likely
  // for S(D)'s words, so the database component is the maximum-likelihood
  // explanation.
  const summary::ContentSummary cat =
      MakeDb(500, {{"a", 100, 120}, {"b", 20, 25}, {"c", 4, 5}});
  const std::vector<double> lambdas =
      FitMixtureWeights({&cat, &db}, 1e-4, /*sample_size=*/0,
                        ShrinkageOptions{.epsilon = 1e-12,
                                         .max_iterations = 5000});
  EXPECT_GT(lambdas.back(), 0.98);
}

TEST(FitMixtureWeightsTest, EmptySummaryGivesUniformLambdas) {
  summary::ContentSummary db;
  db.set_num_documents(10);
  const summary::ContentSummary cat = MakeDb(100, {{"a", 10, 10}});
  const std::vector<double> lambdas = FitMixtureWeights({&cat, &db}, 1e-4, 10);
  ASSERT_EQ(lambdas.size(), 3u);
  for (double l : lambdas) EXPECT_NEAR(l, 1.0 / 3.0, 1e-12);
}

// ------------------------------------------------------------ ShrinkageModel

class ShrinkageModelTest : public ::testing::Test {
 protected:
  ShrinkageModelTest() : hierarchy_("Root") {
    health_ = hierarchy_.AddCategory("Health", hierarchy_.root());
    heart_ = hierarchy_.AddCategory("Heart", health_);
    sports_ = hierarchy_.AddCategory("Sports", hierarchy_.root());

    dbs_.push_back(MakeDb(
        200, {{"cardiac", 100, 150}, {"blood", 40, 60}, {"rare0", 2, 2}}));
    dbs_.push_back(MakeDb(300, {{"cardiac", 120, 160},
                                {"hypertension", 90, 120},
                                {"blood", 150, 200}}));
    dbs_.push_back(MakeDb(400, {{"goal", 300, 400}, {"league", 100, 120}}));
    for (const auto& d : dbs_) ptrs_.push_back(&d);
    classifications_ = {heart_, heart_, sports_};
    hs_ = std::make_unique<HierarchySummaries>(&hierarchy_, ptrs_,
                                               classifications_);
    model_ = std::make_unique<ShrinkageModel>(hs_.get(),
                                              std::vector<size_t>{50, 50, 50});
  }

  corpus::TopicHierarchy hierarchy_;
  corpus::CategoryId health_, heart_, sports_;
  std::vector<summary::ContentSummary> dbs_;
  std::vector<const summary::ContentSummary*> ptrs_;
  std::vector<corpus::CategoryId> classifications_;
  std::unique_ptr<HierarchySummaries> hs_;
  std::unique_ptr<ShrinkageModel> model_;
};

TEST_F(ShrinkageModelTest, PathsIncludeRootPerTable2) {
  // Table 2 lists Uniform, Root, ..., leaf, database — so the fitted path
  // must start at the root category.
  ASSERT_EQ(model_->path(0).size(), 3u);  // Root, Health, Heart
  EXPECT_EQ(model_->path(0)[0], hierarchy_.root());
  EXPECT_EQ(model_->path(0)[2], heart_);
  EXPECT_EQ(model_->lambdas(0).size(), 5u);  // uniform + 3 + database
}

TEST_F(ShrinkageModelTest, ShrunkSummaryImportsSiblingWords) {
  // db0 lacks "hypertension"; its Heart sibling has it. The Example 3
  // scenario: shrinkage must lift it well above the uniform floor that an
  // entirely unknown word receives.
  const ShrunkSummary& shrunk = model_->shrunk(0);
  EXPECT_GT(shrunk.MixtureProbDoc("hypertension"),
            3 * shrunk.MixtureProbDoc("word-from-nowhere"));
}

TEST_F(ShrinkageModelTest, OffTopicWordsStayNearUniformFloor) {
  const ShrunkSummary& shrunk = model_->shrunk(0);
  // "goal" lives under Sports; for a Heart database only the Root-exclusive
  // component and the uniform floor can supply it.
  EXPECT_LT(shrunk.MixtureProbDoc("goal"),
            shrunk.MixtureProbDoc("hypertension"));
}

TEST_F(ShrinkageModelTest, DatabaseWordsKeepHighProbability) {
  const ShrunkSummary& shrunk = model_->shrunk(0);
  EXPECT_GT(shrunk.MixtureProbDoc("cardiac"), 0.1);
  EXPECT_GT(shrunk.MixtureProbDoc("cardiac"),
            shrunk.MixtureProbDoc("hypertension"));
}

TEST_F(ShrinkageModelTest, LambdasSumToOneForEveryDatabase) {
  for (size_t i = 0; i < model_->num_databases(); ++i) {
    const auto& l = model_->lambdas(i);
    EXPECT_NEAR(std::accumulate(l.begin(), l.end(), 0.0), 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace fedsearch::core

#include "fedsearch/core/metasearcher.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/lm.h"
#include "testing/small_testbed.h"

namespace fedsearch::core {
namespace {

using fedsearch::testing::SharedSmallTestbed;

// One sampled federation shared by the tests in this file.
class MetasearcherTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const corpus::Testbed& bed = SharedSmallTestbed();
    sampling::QbsOptions options;
    options.target_documents = 80;
    sampling::QbsSampler sampler(
        options, corpus::BuildSamplerDictionary(bed.model(), 10));
    std::vector<sampling::SampleResult> samples;
    std::vector<corpus::CategoryId> classifications;
    util::Rng rng(77);
    for (size_t i = 0; i < bed.num_databases(); ++i) {
      util::Rng db_rng = rng.Fork();
      samples.push_back(sampler.Sample(bed.database(i), db_rng));
      classifications.push_back(bed.category_of(i));
    }
    meta_ = new Metasearcher(&bed.hierarchy(), std::move(samples),
                             std::move(classifications));
  }

  // Frees the federation, so that every suite on this fixture sets up
  // and tears down its own.
  static void TearDownTestSuite() {
    delete meta_;
    meta_ = nullptr;
  }

  static Metasearcher* meta_;
};

Metasearcher* MetasearcherTest::meta_ = nullptr;

TEST_F(MetasearcherTest, ExposesPerDatabaseArtifacts) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  ASSERT_EQ(meta_->num_databases(), bed.num_databases());
  for (size_t i = 0; i < meta_->num_databases(); ++i) {
    EXPECT_GT(meta_->plain_summary(i).vocabulary_size(), 0u);
    EXPECT_GE(meta_->shrunk_summary(i).vocabulary_size(),
              meta_->plain_summary(i).vocabulary_size());
    const auto& lambdas = meta_->lambdas(i);
    double sum = 0.0;
    for (double l : lambdas) sum += l;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_F(MetasearcherTest, GlobalSummaryIsRootAggregate) {
  EXPECT_DOUBLE_EQ(
      meta_->global_summary().num_documents(),
      meta_->hierarchy_summaries().root_aggregate().num_documents());
  EXPECT_GT(meta_->global_summary().vocabulary_size(), 0u);
}

TEST_F(MetasearcherTest, PlainModeNeverAppliesShrinkage) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[0].text)};
  const auto outcome = meta_->SelectDatabases(q, cori, SummaryMode::kPlain);
  EXPECT_EQ(outcome.shrinkage_applied, 0u);
  EXPECT_EQ(outcome.databases_considered, meta_->num_databases());
}

TEST_F(MetasearcherTest, UniversalModeAlwaysAppliesShrinkage) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[0].text)};
  const auto outcome =
      meta_->SelectDatabases(q, cori, SummaryMode::kUniversalShrinkage);
  EXPECT_EQ(outcome.shrinkage_applied, meta_->num_databases());
}

TEST_F(MetasearcherTest, AdaptiveModeAppliesShrinkageSelectively) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  size_t total_applied = 0;
  for (const corpus::TestQuery& tq : bed.queries()) {
    const selection::Query q{bed.analyzer().Analyze(tq.text)};
    const auto outcome =
        meta_->SelectDatabases(q, cori, SummaryMode::kAdaptiveShrinkage);
    total_applied += outcome.shrinkage_applied;
    EXPECT_LE(outcome.shrinkage_applied, outcome.databases_considered);
  }
  // Across several queries, the adaptive rule should fire at least once
  // and not for every single pair (Table 10 reports 11%-78%).
  EXPECT_GT(total_applied, 0u);
  EXPECT_LT(total_applied,
            bed.queries().size() * meta_->num_databases());
}

TEST_F(MetasearcherTest, AdaptiveDecisionsAreDeterministic) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::BglossScorer bgloss;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[1].text)};
  const auto a =
      meta_->SelectDatabases(q, bgloss, SummaryMode::kAdaptiveShrinkage);
  const auto b =
      meta_->SelectDatabases(q, bgloss, SummaryMode::kAdaptiveShrinkage);
  EXPECT_EQ(a.shrinkage_applied, b.shrinkage_applied);
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].database, b.ranking[i].database);
  }
}

TEST_F(MetasearcherTest, RankingsAreSortedAndDeduplicated) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  for (const corpus::TestQuery& tq : bed.queries()) {
    const selection::Query q{bed.analyzer().Analyze(tq.text)};
    const auto outcome =
        meta_->SelectDatabases(q, cori, SummaryMode::kAdaptiveShrinkage);
    std::unordered_set<size_t> seen;
    double prev = 1e300;
    for (const auto& r : outcome.ranking) {
      EXPECT_TRUE(seen.insert(r.database).second);
      EXPECT_LE(r.score, prev);
      prev = r.score;
    }
  }
}

// --- Bounded (deadline-carrying) selection --------------------------------

TEST_F(MetasearcherTest, BornExpiredDeadlineAbortsBeforeAnyWork) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[0].text)};
  util::Deadline deadline(0.0);
  const auto outcome = meta_->SelectDatabases(
      q, cori, SummaryMode::kAdaptiveShrinkage, &deadline);
  EXPECT_EQ(outcome.status.code(), util::Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(outcome.ranking.empty());
  EXPECT_EQ(outcome.evaluations_completed, 0u);
}

TEST_F(MetasearcherTest, BoundedAbortBoundaryMatchesTheCostModel) {
  // Each adaptive evaluation charges 1ms; a 3.5ms budget is crossed by the
  // fourth charge, so exactly four evaluations run (the fourth lands its
  // charge, sees the spent budget, and skips its Monte-Carlo work) and the
  // fifth boundary aborts the request.
  ASSERT_EQ(meta_->num_degraded(), 0u);  // healthy federation: every
                                         // database charges one evaluation
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[0].text)};
  util::Deadline::Costs costs;
  costs.adaptive_evaluation_ms = 1.0;
  costs.score_ms = 0.25;
  util::Deadline deadline(3.5, costs);
  const auto outcome = meta_->SelectDatabases(
      q, cori, SummaryMode::kAdaptiveShrinkage, &deadline);
  EXPECT_EQ(outcome.status.code(), util::Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(outcome.ranking.empty());
  EXPECT_EQ(outcome.evaluations_completed, 4u);
  EXPECT_DOUBLE_EQ(deadline.consumed_ms(), 4.0);
}

TEST_F(MetasearcherTest, GenerousDeadlineMatchesUnboundedBitForBit) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[1].text)};
  const auto unbounded =
      meta_->SelectDatabases(q, cori, SummaryMode::kAdaptiveShrinkage);
  util::Deadline deadline(1e9);
  const auto bounded = meta_->SelectDatabases(
      q, cori, SummaryMode::kAdaptiveShrinkage, &deadline);
  EXPECT_TRUE(bounded.status.ok());
  EXPECT_EQ(bounded.shrinkage_applied, unbounded.shrinkage_applied);
  ASSERT_EQ(bounded.ranking.size(), unbounded.ranking.size());
  for (size_t i = 0; i < bounded.ranking.size(); ++i) {
    EXPECT_EQ(bounded.ranking[i].database, unbounded.ranking[i].database);
    EXPECT_EQ(bounded.ranking[i].score, unbounded.ranking[i].score);
  }
  // Consumption is the exact fold of the charge sequence: one evaluation
  // per non-degraded database, then one scoring charge per database.
  const util::Deadline::Costs costs;  // defaults, as used above
  double replay = 0.0;
  const size_t n = meta_->num_databases();
  for (size_t i = 0; i < n - meta_->num_degraded(); ++i) {
    replay += costs.adaptive_evaluation_ms;
  }
  for (size_t i = 0; i < n; ++i) replay += costs.score_ms;
  EXPECT_EQ(deadline.consumed_ms(), replay);
}

TEST_F(MetasearcherTest, SelectionCompletedPastTheDeadlineIsNotServed) {
  // A budget equal to the exact total cost is spent by the final scoring
  // charge: the ranking exists but arrived late, so the caller gets
  // kDeadlineExceeded and an empty ranking, never a stale answer.
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[0].text)};
  util::Deadline::Costs costs;
  costs.adaptive_evaluation_ms = 1.0;
  costs.score_ms = 0.25;
  double budget = 0.0;
  const size_t n = meta_->num_databases();
  for (size_t i = 0; i < n - meta_->num_degraded(); ++i) {
    budget += costs.adaptive_evaluation_ms;
  }
  for (size_t i = 0; i < n; ++i) budget += costs.score_ms;
  util::Deadline deadline(budget, costs);
  const auto outcome = meta_->SelectDatabases(
      q, cori, SummaryMode::kAdaptiveShrinkage, &deadline);
  EXPECT_EQ(outcome.status.code(), util::Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(outcome.ranking.empty());
  EXPECT_EQ(outcome.evaluations_completed, n - meta_->num_degraded());
  EXPECT_EQ(deadline.consumed_ms(), budget);
}

TEST_F(MetasearcherTest, PlainModeChargesOnlyScoring) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[0].text)};
  const auto unbounded = meta_->SelectDatabases(q, cori, SummaryMode::kPlain);
  util::Deadline::Costs costs;
  costs.adaptive_evaluation_ms = 1e9;  // would blow any budget if charged
  costs.score_ms = 0.25;
  util::Deadline deadline(100.0, costs);
  const auto outcome =
      meta_->SelectDatabases(q, cori, SummaryMode::kPlain, &deadline);
  EXPECT_TRUE(outcome.status.ok());
  ASSERT_EQ(outcome.ranking.size(), unbounded.ranking.size());
  for (size_t i = 0; i < outcome.ranking.size(); ++i) {
    EXPECT_EQ(outcome.ranking[i].database, unbounded.ranking[i].database);
    EXPECT_EQ(outcome.ranking[i].score, unbounded.ranking[i].score);
  }
  double replay = 0.0;
  for (size_t i = 0; i < meta_->num_databases(); ++i) replay += costs.score_ms;
  EXPECT_EQ(deadline.consumed_ms(), replay);
}

TEST_F(MetasearcherTest, SnapshotBuiltWithAPriorIsItsNextEpoch) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  std::vector<sampling::SampleResult> samples;
  std::vector<corpus::CategoryId> classifications;
  for (size_t i = 0; i < meta_->num_databases(); ++i) {
    samples.push_back(meta_->sample(i));
    classifications.push_back(meta_->classification(i));
  }
  MetasearcherOptions options;
  options.prior = meta_;
  options.changed_databases = {2};
  const Metasearcher next(&bed.hierarchy(), std::move(samples),
                          std::move(classifications), options);
  EXPECT_EQ(meta_->epoch(), 0u);
  EXPECT_EQ(next.epoch(), 1u);
  for (size_t i = 0; i < next.num_databases(); ++i) {
    EXPECT_EQ(next.summary_epoch(i), i == 2 ? 1u : 0u) << "database " << i;
  }
}

TEST(MetasearcherDeathTest, InvalidCategoryAborts) {
  const corpus::TopicHierarchy hierarchy("Root");
  EXPECT_DEATH(Metasearcher(&hierarchy, std::vector<sampling::SampleResult>(2),
                            {hierarchy.root(), corpus::kInvalidCategory}),
               "database 1 is classified as category -1, not a node of the "
               "1-node hierarchy");
}

// SelectDatabases as the public string path computes it: the adaptive
// decision through AdaptiveSummarySelector::Evaluate, the category
// fallback for degraded databases, then the scorer's PrepareContext and
// RankDatabases over the chosen summaries.
std::vector<selection::RankedDatabase> ReplaySelection(
    const Metasearcher& meta, const selection::Query& query,
    const selection::ScoringFunction& scorer, SummaryMode mode) {
  const size_t n = meta.num_databases();
  std::vector<const summary::SummaryView*> plain(n);
  std::vector<const summary::SummaryView*> shrunk(n);
  for (size_t i = 0; i < n; ++i) {
    plain[i] = &meta.plain_summary(i);
    shrunk[i] = &meta.shrunk_summary(i);
  }
  std::vector<const summary::SummaryView*> chosen =
      mode == SummaryMode::kUniversalShrinkage ? shrunk : plain;
  if (mode == SummaryMode::kAdaptiveShrinkage) {
    selection::ScoringContext decision;
    decision.ranked_summaries = plain;
    decision.global_summary = &meta.global_summary();
    scorer.PrepareContext(query, meta.plain_statistics(), decision);
    const AdaptiveSummarySelector selector(MetasearcherOptions().adaptive);
    util::Rng unused(0);
    for (size_t i = 0; i < n; ++i) {
      if (meta.degraded(i)) continue;
      if (selector.Evaluate(query, meta.sample(i), scorer, decision, unused)
              .use_shrinkage) {
        chosen[i] = shrunk[i];
      }
    }
  }
  const HierarchySummaries& summaries = meta.hierarchy_summaries();
  const corpus::TopicHierarchy& hierarchy = summaries.hierarchy();
  for (size_t i = 0; i < n; ++i) {
    if (!meta.degraded(i)) continue;
    corpus::CategoryId category = meta.classification(i);
    while (summaries.aggregate(category).vocabulary_size() == 0 &&
           category != hierarchy.root()) {
      category = hierarchy.node(category).parent;
    }
    chosen[i] = &summaries.aggregate(category);
  }
  selection::ScoringContext context;
  context.ranked_summaries = chosen;
  context.global_summary = &meta.global_summary();
  const selection::ScoringStatisticsCache shrunk_statistics(shrunk);
  scorer.PrepareContext(query,
                        mode == SummaryMode::kUniversalShrinkage
                            ? shrunk_statistics
                            : meta.plain_statistics(),
                        context);
  return selection::RankDatabases(query, chosen, scorer, context);
}

TEST(MetasearcherRowsTest, SelectionEqualsThePublicStringPath) {
  // SelectDatabases reads every statistic from its word rows. Over a
  // federation with degraded databases (an empty sample and an aborted
  // one, scored from category aggregates) and queries with repeated and
  // unseen terms, its rankings equal the public path's in every database,
  // position and score bit, for every mode and scorer.
  const corpus::Testbed& bed = SharedSmallTestbed();
  sampling::QbsOptions options;
  options.target_documents = 80;
  sampling::QbsSampler sampler(
      options, corpus::BuildSamplerDictionary(bed.model(), 10));
  std::vector<sampling::SampleResult> samples;
  std::vector<corpus::CategoryId> classifications;
  util::Rng rng(91);
  for (size_t i = 0; i < bed.num_databases(); ++i) {
    util::Rng db_rng = rng.Fork();
    samples.push_back(sampler.Sample(bed.database(i), db_rng));
    classifications.push_back(bed.category_of(i));
  }
  samples[1] = sampling::SampleResult{};
  samples[4] = sampling::SampleResult{};
  samples[4].health.outcome = sampling::SamplingOutcome::kAborted;
  MetasearcherOptions pooled;
  pooled.num_threads = 2;
  const Metasearcher meta(&bed.hierarchy(), std::move(samples),
                          std::move(classifications), pooled);
  ASSERT_EQ(meta.num_degraded(), 2u);

  std::vector<selection::Query> queries;
  for (const corpus::TestQuery& tq : bed.queries()) {
    selection::Query q{bed.analyzer().Analyze(tq.text)};
    if (q.terms.empty()) continue;
    queries.push_back(q);
    // The first term again, and a word no summary holds, between them.
    q.terms.insert(q.terms.begin() + 1, "zzunseenword");
    q.terms.push_back(q.terms.front());
    queries.push_back(q);
  }
  const selection::CoriScorer cori;
  const selection::BglossScorer bgloss;
  const selection::LmScorer lm;
  size_t ranked = 0;
  size_t shrunk = 0;
  for (const selection::ScoringFunction* scorer :
       std::vector<const selection::ScoringFunction*>{&cori, &bgloss, &lm}) {
    for (SummaryMode mode :
         {SummaryMode::kPlain, SummaryMode::kAdaptiveShrinkage,
          SummaryMode::kUniversalShrinkage}) {
      for (const selection::Query& q : queries) {
        const auto outcome = meta.SelectDatabases(q, *scorer, mode);
        const auto want = ReplaySelection(meta, q, *scorer, mode);
        ASSERT_EQ(outcome.ranking.size(), want.size()) << scorer->name();
        for (size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(outcome.ranking[r].database, want[r].database)
              << scorer->name() << " rank " << r;
          EXPECT_EQ(std::bit_cast<uint64_t>(outcome.ranking[r].score),
                    std::bit_cast<uint64_t>(want[r].score))
              << scorer->name() << " rank " << r;
        }
        ranked += want.size();
        if (mode == SummaryMode::kAdaptiveShrinkage) {
          shrunk += outcome.shrinkage_applied;
        }
      }
    }
  }
  EXPECT_GT(ranked, 0u);
  // The adaptive rule chose R(D) somewhere, so the rows' mixture path ran.
  EXPECT_GT(shrunk, 0u);
}

TEST_F(MetasearcherTest, HierarchicalSelectionReturnsAtMostK) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[0].text)};
  const auto ranking = meta_->SelectHierarchical(q, cori, 5);
  EXPECT_LE(ranking.size(), 5u);
}

}  // namespace
}  // namespace fedsearch::core

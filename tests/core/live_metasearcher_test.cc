#include "fedsearch/core/live_metasearcher.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fedsearch/corpus/churn.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/bgloss.h"
#include "testing/churn_testbed.h"

namespace fedsearch::core {
namespace {

using fedsearch::testing::SharedChurnTestbed;

sampling::QbsSampler MakeSampler() {
  const corpus::Testbed& bed = SharedChurnTestbed();
  sampling::QbsOptions options;
  options.target_documents = 60;
  return sampling::QbsSampler(options,
                              corpus::BuildSamplerDictionary(bed.model(), 10));
}

// Epoch-0 samples of the frozen testbed, deterministic per `seed`.
std::vector<sampling::SampleResult> SampleFederation(uint64_t seed) {
  const corpus::Testbed& bed = SharedChurnTestbed();
  sampling::QbsSampler sampler = MakeSampler();
  std::vector<sampling::SampleResult> samples;
  util::Rng rng(seed);
  for (size_t i = 0; i < bed.num_databases(); ++i) {
    util::Rng db_rng = rng.Fork();
    samples.push_back(sampler.Sample(bed.database(i), db_rng));
  }
  return samples;
}

std::vector<corpus::CategoryId> Classifications() {
  const corpus::Testbed& bed = SharedChurnTestbed();
  std::vector<corpus::CategoryId> c;
  for (size_t i = 0; i < bed.num_databases(); ++i) {
    c.push_back(bed.category_of(i));
  }
  return c;
}

std::vector<std::pair<size_t, double>> Rank(
    const Metasearcher& meta, const selection::Query& query,
    const selection::ScoringFunction& scorer) {
  const auto outcome =
      meta.SelectDatabases(query, scorer, SummaryMode::kAdaptiveShrinkage);
  std::vector<std::pair<size_t, double>> ranking;
  for (const auto& r : outcome.ranking) ranking.emplace_back(r.database, r.score);
  return ranking;
}

TEST(LiveMetasearcherTest, PublishesEpochZeroSnapshotOnConstruction) {
  const corpus::Testbed& bed = SharedChurnTestbed();
  LiveMetasearcher live(&bed.hierarchy(), SampleFederation(77),
                        Classifications());
  EXPECT_EQ(live.epoch(), 0u);
  const std::shared_ptr<const Metasearcher> snap = live.Snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 0u);
  EXPECT_EQ(snap->num_databases(), bed.num_databases());

  // Scores match a plain, never-refreshed Metasearcher over the same
  // samples bit-for-bit.
  const Metasearcher fixed(&bed.hierarchy(), SampleFederation(77),
                           Classifications());
  selection::BglossScorer bgloss;
  for (const corpus::TestQuery& tq : bed.queries()) {
    const selection::Query q{bed.analyzer().Analyze(tq.text)};
    EXPECT_EQ(Rank(*snap, q, bgloss), Rank(fixed, q, bgloss));
  }
}

TEST(LiveMetasearcherTest, FixedSourceHandsOutTheSameSnapshot) {
  const corpus::Testbed& bed = SharedChurnTestbed();
  const Metasearcher fixed(&bed.hierarchy(), SampleFederation(77),
                           Classifications());
  FixedMetasearcherSource source(&fixed);
  EXPECT_EQ(source.Snapshot().get(), &fixed);
  EXPECT_EQ(source.Snapshot().get(), source.Snapshot().get());
}

TEST(LiveMetasearcherTest, RefreshAdvancesEpochAndKeepsOldSnapshotAlive) {
  const corpus::Testbed& bed = SharedChurnTestbed();
  LiveMetasearcher live(&bed.hierarchy(), SampleFederation(77),
                        Classifications());
  const std::shared_ptr<const Metasearcher> snap0 = live.Snapshot();

  // Re-probe database 0 with a different sampler stream.
  sampling::QbsSampler sampler = MakeSampler();
  util::Rng rng(123456);
  SummaryUpdate update;
  update.database = 0;
  update.sample = sampler.Sample(bed.database(0), rng);
  update.classification = bed.category_of(0);
  ASSERT_TRUE(live.ApplyRefresh({std::move(update)}).ok());

  EXPECT_EQ(live.epoch(), 1u);
  const std::shared_ptr<const Metasearcher> snap1 = live.Snapshot();
  EXPECT_NE(snap0.get(), snap1.get());
  EXPECT_EQ(snap0->epoch(), 0u);  // pinned readers keep their epoch
  EXPECT_EQ(snap1->epoch(), 1u);
  EXPECT_EQ(snap1->summary_epoch(0), 1u);  // only db 0 was re-probed
  EXPECT_EQ(snap1->summary_epoch(1), 0u);

  // The superseded snapshot still serves — RCU, not invalidation.
  selection::BglossScorer bgloss;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[0].text)};
  EXPECT_FALSE(Rank(*snap0, q, bgloss).empty());
  EXPECT_FALSE(Rank(*snap1, q, bgloss).empty());
}

// A fresh sample of database `db` from a sampler stream of its own.
SummaryUpdate Reprobe(size_t db, uint64_t seed) {
  const corpus::Testbed& bed = SharedChurnTestbed();
  sampling::QbsSampler sampler = MakeSampler();
  util::Rng rng(seed);
  SummaryUpdate update;
  update.database = db;
  update.sample = sampler.Sample(bed.database(db), rng);
  update.classification = bed.category_of(db);
  return update;
}

TEST(LiveMetasearcherTest, RefreshSharesUnchangedSamples) {
  const corpus::Testbed& bed = SharedChurnTestbed();
  LiveMetasearcher live(&bed.hierarchy(), SampleFederation(77),
                        Classifications());
  const std::shared_ptr<const Metasearcher> snap0 = live.Snapshot();
  ASSERT_TRUE(live.ApplyRefresh({Reprobe(0, 123456)}).ok());
  const std::shared_ptr<const Metasearcher> snap1 = live.Snapshot();
  ASSERT_EQ(snap1->num_databases(), snap0->num_databases());
  EXPECT_NE(&snap1->sample(0), &snap0->sample(0));
  for (size_t i = 1; i < snap1->num_databases(); ++i) {
    EXPECT_EQ(&snap1->sample(i), &snap0->sample(i)) << "database " << i;
  }
}

TEST(LiveMetasearcherTest, SummaryEpochsCarryAcrossRefreshes) {
  const corpus::Testbed& bed = SharedChurnTestbed();
  ASSERT_GE(bed.num_databases(), 3u);
  LiveMetasearcher live(&bed.hierarchy(), SampleFederation(77),
                        Classifications());
  // Database 0 moves to another category at epoch 1.
  const corpus::CategoryId moved =
      bed.category_of(0) == bed.hierarchy().root() ? 1 : bed.hierarchy().root();
  SummaryUpdate first = Reprobe(0, 123456);
  first.classification = moved;
  ASSERT_TRUE(live.ApplyRefresh({std::move(first)}).ok());
  ASSERT_TRUE(live.ApplyRefresh({Reprobe(1, 654321)}).ok());

  const std::shared_ptr<const Metasearcher> snap = live.Snapshot();
  EXPECT_EQ(snap->epoch(), 2u);
  EXPECT_EQ(snap->summary_epoch(0), 1u);
  EXPECT_EQ(snap->summary_epoch(1), 2u);
  for (size_t i = 2; i < snap->num_databases(); ++i) {
    EXPECT_EQ(snap->summary_epoch(i), 0u) << "database " << i;
  }
  EXPECT_EQ(snap->classification(0), moved);
  EXPECT_EQ(snap->classification(1), bed.category_of(1));
}

TEST(LiveMetasearcherTest, RefreshedSnapshotMatchesFromScratchBuild) {
  // The incremental path (ScoringStatisticsCache::Rebuilt + derived
  // posterior cache + prior-based construction) must be invisible: after
  // any refresh sequence, scoring is bit-identical to a Metasearcher
  // built from scratch over the final samples.
  const corpus::Testbed& bed = SharedChurnTestbed();
  std::vector<sampling::SampleResult> samples = SampleFederation(77);
  std::vector<corpus::CategoryId> classifications = Classifications();
  LiveMetasearcher live(&bed.hierarchy(), samples, classifications);

  sampling::QbsSampler sampler = MakeSampler();
  util::Rng rng(98765);
  // Two refresh rounds touching different database sets.
  for (const std::vector<size_t>& round :
       {std::vector<size_t>{1, 4}, std::vector<size_t>{1, 7, 9}}) {
    std::vector<SummaryUpdate> updates;
    for (size_t db : round) {
      SummaryUpdate u;
      u.database = db;
      util::Rng db_rng = rng.Fork();
      u.sample = sampler.Sample(bed.database(db), db_rng);
      u.classification = bed.category_of(db);
      samples[db] = u.sample;  // mirror for the from-scratch build
      updates.push_back(std::move(u));
    }
    ASSERT_TRUE(live.ApplyRefresh(std::move(updates)).ok());
  }
  ASSERT_EQ(live.epoch(), 2u);

  const Metasearcher scratch(&bed.hierarchy(), std::move(samples),
                             std::move(classifications));
  const std::shared_ptr<const Metasearcher> snap = live.Snapshot();
  selection::BglossScorer bgloss;
  for (const corpus::TestQuery& tq : bed.queries()) {
    const selection::Query q{bed.analyzer().Analyze(tq.text)};
    EXPECT_EQ(Rank(*snap, q, bgloss), Rank(scratch, q, bgloss));
  }
}

TEST(LiveMetasearcherTest, RejectsMalformedRefreshBatches) {
  const corpus::Testbed& bed = SharedChurnTestbed();
  LiveMetasearcher live(&bed.hierarchy(), SampleFederation(77),
                        Classifications());

  SummaryUpdate out_of_range;
  out_of_range.database = bed.num_databases();
  util::Status status = live.ApplyRefresh({out_of_range});
  EXPECT_EQ(status.code(), util::Status::Code::kInvalidArgument);

  SummaryUpdate a;
  a.database = 2;
  SummaryUpdate b;
  b.database = 2;
  status = live.ApplyRefresh({a, b});
  EXPECT_EQ(status.code(), util::Status::Code::kInvalidArgument);

  SummaryUpdate unclassified;
  unclassified.database = 3;
  unclassified.classification = corpus::kInvalidCategory;
  status = live.ApplyRefresh({unclassified});
  EXPECT_EQ(status.code(), util::Status::Code::kInvalidArgument);

  // Failed refreshes publish nothing.
  EXPECT_EQ(live.epoch(), 0u);
  EXPECT_EQ(live.Snapshot()->epoch(), 0u);
}

TEST(LiveMetasearcherTest, EmptyRefreshStillAdvancesTheEpoch) {
  const corpus::Testbed& bed = SharedChurnTestbed();
  LiveMetasearcher live(&bed.hierarchy(), SampleFederation(77),
                        Classifications());
  ASSERT_TRUE(live.ApplyRefresh({}).ok());
  EXPECT_EQ(live.epoch(), 1u);
  EXPECT_EQ(live.Snapshot()->epoch(), 1u);
  EXPECT_EQ(live.Snapshot()->summary_epoch(0), 0u);  // nothing re-probed
}

TEST(LiveMetasearcherTest, SupersededSnapshotKeepsItsGrids) {
  // A refresh derives the next snapshot's posterior cache and leaves the
  // published one's alone: a reader still on the superseded snapshot keeps
  // hitting the grids it built, including the re-probed database's.
  const corpus::Testbed& bed = SharedChurnTestbed();
  LiveMetasearcher live(&bed.hierarchy(), SampleFederation(77),
                        Classifications());
  const std::shared_ptr<const Metasearcher> snap0 = live.Snapshot();
  selection::BglossScorer bgloss;
  std::vector<selection::Query> queries;
  std::vector<std::vector<std::pair<size_t, double>>> warm;
  for (const corpus::TestQuery& tq : bed.queries()) {
    queries.push_back(selection::Query{bed.analyzer().Analyze(tq.text)});
    warm.push_back(Rank(*snap0, queries.back(), bgloss));
  }
  const size_t warm_size = snap0->posterior_cache_size();
  const PosteriorCache::Stats before = snap0->posterior_cache_stats();

  ASSERT_TRUE(live.ApplyRefresh({Reprobe(0, 123456)}).ok());
  // Database 0 held grids, and the refreshed snapshot dropped them.
  ASSERT_GT(live.posterior_cache_stats().evictions, 0u);
  EXPECT_LT(live.Snapshot()->posterior_cache_size(), warm_size);
  EXPECT_EQ(snap0->posterior_cache_size(), warm_size);

  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(Rank(*snap0, queries[q], bgloss), warm[q]) << "query " << q;
  }
  const PosteriorCache::Stats after = snap0->posterior_cache_stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(snap0->posterior_cache_size(), warm_size);
}

}  // namespace
}  // namespace fedsearch::core

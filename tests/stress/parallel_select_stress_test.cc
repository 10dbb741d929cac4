#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fedsearch/core/metasearcher.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/lm.h"
#include "fedsearch/util/metrics.h"
#include "testing/small_testbed.h"

// TSan-targeted stress coverage for the serving entry point: many threads
// calling SelectDatabases concurrently on ONE Metasearcher (shared thread
// pool, shared posterior cache, shared scoring statistics), checked
// bit-identical against a serial single-threaded reference. This is the
// documented concurrency contract of Metasearcher::SelectDatabases.

namespace fedsearch::core {
namespace {

using fedsearch::testing::SharedSmallTestbed;

struct Federation {
  std::vector<sampling::SampleResult> samples;
  std::vector<corpus::CategoryId> classifications;
};

Federation SampleFederation() {
  const corpus::Testbed& bed = SharedSmallTestbed();
  sampling::QbsOptions options;
  options.target_documents = 60;
  sampling::QbsSampler sampler(
      options, corpus::BuildSamplerDictionary(bed.model(), 10));
  Federation fed;
  util::Rng rng(4242);
  for (size_t i = 0; i < bed.num_databases(); ++i) {
    util::Rng db_rng = rng.Fork();
    fed.samples.push_back(sampler.Sample(bed.database(i), db_rng));
    fed.classifications.push_back(bed.category_of(i));
  }
  return fed;
}

class ParallelSelectStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const corpus::Testbed& bed = SharedSmallTestbed();
    {
      Federation fed = SampleFederation();
      MetasearcherOptions serial;
      serial.num_threads = 1;
      reference_ = new Metasearcher(&bed.hierarchy(), std::move(fed.samples),
                                    std::move(fed.classifications), serial);
    }
    {
      Federation fed = SampleFederation();
      MetasearcherOptions pooled;
      pooled.num_threads = 3;  // force a real worker pool even on 1-core CI
      shared_ = new Metasearcher(&bed.hierarchy(), std::move(fed.samples),
                                 std::move(fed.classifications), pooled);
    }
  }

  static void ExpectIdentical(const Metasearcher::SelectionOutcome& got,
                              const Metasearcher::SelectionOutcome& want) {
    EXPECT_EQ(got.shrinkage_applied, want.shrinkage_applied);
    EXPECT_EQ(got.category_fallbacks, want.category_fallbacks);
    ASSERT_EQ(got.ranking.size(), want.ranking.size());
    for (size_t i = 0; i < got.ranking.size(); ++i) {
      EXPECT_EQ(got.ranking[i].database, want.ranking[i].database);
      // Bit-identical, not approximately equal: the serving layer's
      // determinism guarantee.
      EXPECT_EQ(got.ranking[i].score, want.ranking[i].score);
    }
  }

  static Metasearcher* reference_;  // serial, untouched by the threads
  static Metasearcher* shared_;     // pooled, hammered concurrently
};

Metasearcher* ParallelSelectStressTest::reference_ = nullptr;
Metasearcher* ParallelSelectStressTest::shared_ = nullptr;

TEST_F(ParallelSelectStressTest,
       ConcurrentSelectDatabasesMatchesSerialReference) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  selection::LmScorer lm;
  const std::vector<const selection::ScoringFunction*> scorers = {&cori, &lm};
  const std::vector<SummaryMode> modes = {SummaryMode::kPlain,
                                          SummaryMode::kAdaptiveShrinkage,
                                          SummaryMode::kUniversalShrinkage};
  std::vector<selection::Query> queries;
  for (const corpus::TestQuery& tq : bed.queries()) {
    queries.push_back(selection::Query{bed.analyzer().Analyze(tq.text)});
  }

  // Serial references, computed once up front on this thread.
  std::vector<Metasearcher::SelectionOutcome> expected;
  for (const selection::ScoringFunction* scorer : scorers) {
    for (SummaryMode mode : modes) {
      for (const selection::Query& q : queries) {
        expected.push_back(reference_->SelectDatabases(q, *scorer, mode));
      }
    }
  }

  constexpr size_t kCallers = 4;
  constexpr size_t kRepeats = 2;
  const size_t per_scorer = modes.size() * queries.size();
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t rep = 0; rep < kRepeats; ++rep) {
        for (size_t k = 0; k < expected.size(); ++k) {
          // Rotate the walk per caller so different (scorer, mode, query)
          // triples overlap inside the shared pool at any instant.
          const size_t at = (k + c * 5) % expected.size();
          const selection::ScoringFunction& scorer =
              *scorers[at / per_scorer];
          const SummaryMode mode = modes[(at % per_scorer) / queries.size()];
          const selection::Query& q = queries[at % queries.size()];
          ExpectIdentical(shared_->SelectDatabases(q, scorer, mode),
                          expected[at]);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();

  // The posterior cache was shared by every adaptive call: totals must be
  // consistent (every lookup accounted exactly once).
  const PosteriorCache::Stats stats = shared_->posterior_cache_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.hits, stats.misses);  // the workload re-visits keys
}

TEST_F(ParallelSelectStressTest, PooledSelectIsInternallyDeterministic) {
  // Same query repeated on the pooled metasearcher while other threads run
  // it too: every invocation must agree with itself run-to-run.
  const corpus::Testbed& bed = SharedSmallTestbed();
  selection::CoriScorer cori;
  const selection::Query q{bed.analyzer().Analyze(bed.queries()[0].text)};
  const auto baseline =
      shared_->SelectDatabases(q, cori, SummaryMode::kAdaptiveShrinkage);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < 3; ++c) {
    callers.emplace_back([&] {
      for (size_t rep = 0; rep < 4; ++rep) {
        ExpectIdentical(
            shared_->SelectDatabases(q, cori, SummaryMode::kAdaptiveShrinkage),
            baseline);
      }
    });
  }
  for (std::thread& t : callers) t.join();
}

TEST_F(ParallelSelectStressTest, RacingFirstUniversalCallsBuildStatisticsOnce) {
  // The shrunk summaries' corpus statistics are built by the first
  // universal-mode call, not with the snapshot. Several threads make that
  // first call on a fresh pooled snapshot at once: exactly one of them
  // builds, and every outcome matches the serial reference.
  const corpus::Testbed& bed = SharedSmallTestbed();
  const util::Histogram& builds = util::GlobalMetrics().histogram(
      "serving.shrunk_statistics_build_ns");
  selection::CoriScorer cori;
  selection::LmScorer lm;
  const std::vector<const selection::ScoringFunction*> scorers = {&cori, &lm};
  std::vector<selection::Query> queries;
  for (const corpus::TestQuery& tq : bed.queries()) {
    queries.push_back(selection::Query{bed.analyzer().Analyze(tq.text)});
  }
  std::vector<Metasearcher::SelectionOutcome> expected;
  for (const selection::ScoringFunction* scorer : scorers) {
    for (const selection::Query& q : queries) {
      expected.push_back(reference_->SelectDatabases(
          q, *scorer, SummaryMode::kUniversalShrinkage));
    }
  }

  Federation fed = SampleFederation();
  MetasearcherOptions pooled;
  pooled.num_threads = 3;
  const uint64_t builds_before = builds.count();
  const Metasearcher fresh(&bed.hierarchy(), std::move(fed.samples),
                           std::move(fed.classifications), pooled);
  // Plain and adaptive serving never read the shrunk statistics.
  for (const selection::Query& q : queries) {
    (void)fresh.SelectDatabases(q, cori, SummaryMode::kPlain);
    (void)fresh.SelectDatabases(q, cori, SummaryMode::kAdaptiveShrinkage);
  }
  EXPECT_EQ(builds.count(), builds_before);

  constexpr size_t kCallers = 4;
  std::atomic<size_t> waiting{kCallers};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      // Release every caller at once so the first calls race.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (size_t k = 0; k < expected.size(); ++k) {
        const size_t at = (k + c * 3) % expected.size();
        ExpectIdentical(
            fresh.SelectDatabases(queries[at % queries.size()],
                                  *scorers[at / queries.size()],
                                  SummaryMode::kUniversalShrinkage),
            expected[at]);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(builds.count() - builds_before, 1u);
}

TEST_F(ParallelSelectStressTest, RacingAdaptiveQueriesBuildEachWordRowOnce) {
  // A fresh snapshot resolves every query word to a row built on the
  // word's first use. Eight threads race overlapping adaptive queries on
  // it from the start: every outcome matches the serial reference, and
  // each distinct query word's row is built exactly once.
  const corpus::Testbed& bed = SharedSmallTestbed();
  const util::Counter& rows_built =
      util::GlobalMetrics().counter("serving.word_rows_built");
  selection::CoriScorer cori;
  selection::BglossScorer bgloss;
  selection::LmScorer lm;
  const std::vector<const selection::ScoringFunction*> scorers = {
      &cori, &bgloss, &lm};
  std::vector<selection::Query> queries;
  std::set<std::string> words;
  for (const corpus::TestQuery& tq : bed.queries()) {
    queries.push_back(selection::Query{bed.analyzer().Analyze(tq.text)});
    words.insert(queries.back().terms.begin(), queries.back().terms.end());
  }
  std::vector<Metasearcher::SelectionOutcome> expected;
  for (const selection::ScoringFunction* scorer : scorers) {
    for (const selection::Query& q : queries) {
      expected.push_back(reference_->SelectDatabases(
          q, *scorer, SummaryMode::kAdaptiveShrinkage));
    }
  }

  Federation fed = SampleFederation();
  MetasearcherOptions pooled;
  pooled.num_threads = 3;
  const Metasearcher fresh(&bed.hierarchy(), std::move(fed.samples),
                           std::move(fed.classifications), pooled);
  const uint64_t built_before = rows_built.value();
  constexpr size_t kCallers = 8;
  std::atomic<size_t> waiting{kCallers};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      // Release every caller at once so the first uses of each word race.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (size_t k = 0; k < expected.size(); ++k) {
        const size_t at = (k + c) % expected.size();
        ExpectIdentical(
            fresh.SelectDatabases(queries[at % queries.size()],
                                  *scorers[at / queries.size()],
                                  SummaryMode::kAdaptiveShrinkage),
            expected[at]);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(rows_built.value() - built_before, words.size());
}

}  // namespace
}  // namespace fedsearch::core

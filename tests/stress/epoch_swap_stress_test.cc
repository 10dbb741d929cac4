#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fedsearch/core/live_metasearcher.h"
#include "fedsearch/corpus/churn.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/bgloss.h"
#include "testing/churn_testbed.h"

// TSan-targeted coverage of the epoch-versioned summary swap: reader
// threads score queries through LiveMetasearcher::Snapshot while a writer
// thread publishes new epochs from churned re-probes. The assertions are
// the RCU contract itself — no torn reads (every ranking a reader computes
// is bit-identical to a serial run pinned at the epoch the reader
// observed), snapshots stay valid after being superseded, and the derived
// posterior caches never leak one epoch's grids into another's scores.

namespace fedsearch::core {
namespace {

using fedsearch::testing::SharedChurnTestbed;

using Ranking = std::vector<std::pair<size_t, double>>;

Ranking Rank(const Metasearcher& meta, const selection::Query& query,
             const selection::ScoringFunction& scorer) {
  const auto outcome =
      meta.SelectDatabases(query, scorer, SummaryMode::kAdaptiveShrinkage);
  Ranking ranking;
  for (const auto& r : outcome.ranking) {
    ranking.emplace_back(r.database, r.score);
  }
  return ranking;
}

TEST(EpochSwapStressTest, ReadersSeeConsistentEpochsUnderPublication) {
  const corpus::Testbed& bed = SharedChurnTestbed();
  constexpr size_t kEpochs = 6;
  constexpr size_t kReaders = 3;

  // --- Precompute the refresh schedule (deterministic, single-threaded).
  // Epoch e re-probes the databases the churn scenario changed at epoch e.
  corpus::ChurnTestbed churn(&bed);
  sampling::QbsOptions qbs;
  qbs.target_documents = 60;
  sampling::QbsSampler sampler(qbs,
                               corpus::BuildSamplerDictionary(bed.model(), 10));
  std::vector<sampling::SampleResult> initial;
  std::vector<corpus::CategoryId> classifications;
  {
    util::Rng rng(77);
    for (size_t i = 0; i < bed.num_databases(); ++i) {
      util::Rng db_rng = rng.Fork();
      initial.push_back(sampler.Sample(bed.database(i), db_rng));
      classifications.push_back(bed.category_of(i));
    }
  }
  std::vector<std::vector<SummaryUpdate>> refreshes;  // [epoch - 1]
  {
    util::Rng rng(4242);
    for (size_t e = 1; e <= kEpochs; ++e) {
      std::vector<SummaryUpdate> updates;
      for (size_t db : churn.AdvanceEpoch()) {
        SummaryUpdate u;
        u.database = db;
        util::Rng db_rng = rng.Fork();
        u.sample = sampler.Sample(churn.live_database(db), db_rng);
        u.classification = bed.category_of(db);
        updates.push_back(std::move(u));
      }
      refreshes.push_back(std::move(updates));
    }
  }

  // --- Serial ground truth: the ranking of every (epoch, query) pair,
  // computed by one thread applying the same refreshes to its own
  // LiveMetasearcher (scores are posterior-cache-independent, so a
  // different cache instance must not matter).
  selection::BglossScorer bgloss;
  std::vector<selection::Query> queries;
  for (const corpus::TestQuery& tq : bed.queries()) {
    queries.push_back(selection::Query{bed.analyzer().Analyze(tq.text)});
  }
  std::vector<std::vector<Ranking>> expected(kEpochs + 1);  // [epoch][query]
  {
    LiveMetasearcher serial(&bed.hierarchy(), initial, classifications);
    for (size_t e = 0; e <= kEpochs; ++e) {
      if (e > 0) ASSERT_TRUE(serial.ApplyRefresh(refreshes[e - 1]).ok());
      const std::shared_ptr<const Metasearcher> snap = serial.Snapshot();
      for (const selection::Query& q : queries) {
        expected[e].push_back(Rank(*snap, q, bgloss));
      }
    }
  }

  // --- Concurrent run: readers hammer Snapshot()->SelectDatabases while
  // the writer publishes the same refresh sequence.
  LiveMetasearcher live(&bed.hierarchy(), initial, classifications);
  std::atomic<bool> done{false};
  std::atomic<size_t> checked{0};
  std::atomic<size_t> torn{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t qi = t;  // stagger query choice across readers
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const Metasearcher> snap = live.Snapshot();
        const SummaryEpoch e = snap->epoch();
        const selection::Query& q = queries[qi % queries.size()];
        const Ranking got = Rank(*snap, q, bgloss);
        // Bit-identical to the serial run pinned at the observed epoch:
        // a torn swap, a cross-epoch cache grid, or a summary mutated
        // mid-score would all break exact equality.
        if (got != expected[e][qi % queries.size()]) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        checked.fetch_add(1, std::memory_order_relaxed);
        ++qi;
      }
    });
  }
  std::vector<std::shared_ptr<const Metasearcher>> retired;
  for (size_t e = 1; e <= kEpochs; ++e) {
    retired.push_back(live.Snapshot());  // superseded snapshots stay usable
    ASSERT_TRUE(live.ApplyRefresh(refreshes[e - 1]).ok());
  }
  // Let readers overlap the final epoch too, then stop them.
  while (checked.load(std::memory_order_acquire) < kReaders * (kEpochs + 2)) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GE(checked.load(), kReaders * (kEpochs + 2));
  EXPECT_EQ(live.epoch(), kEpochs);

  // Retired snapshots are still fully scoreable after every swap.
  for (size_t i = 0; i < retired.size(); ++i) {
    const SummaryEpoch e = retired[i]->epoch();
    EXPECT_EQ(Rank(*retired[i], queries[0], bgloss), expected[e][0]);
  }
}

}  // namespace
}  // namespace fedsearch::core

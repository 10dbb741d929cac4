#ifndef FEDSEARCH_CORE_METASEARCHER_H_
#define FEDSEARCH_CORE_METASEARCHER_H_

#include <memory>
#include <vector>

#include "fedsearch/core/adaptive.h"
#include "fedsearch/core/hierarchy_summaries.h"
#include "fedsearch/core/posterior_cache.h"
#include "fedsearch/core/shrinkage.h"
#include "fedsearch/core/word_table.h"
#include "fedsearch/corpus/topic_hierarchy.h"
#include "fedsearch/sampling/sample_result.h"
#include "fedsearch/selection/flat_ranker.h"
#include "fedsearch/selection/hierarchical.h"
#include "fedsearch/selection/scoring.h"
#include "fedsearch/util/deadline.h"
#include "fedsearch/util/mutex.h"
#include "fedsearch/util/status.h"
#include "fedsearch/util/thread_pool.h"
#include "fedsearch/util/trace.h"

namespace fedsearch::core {

// How content summaries are chosen per (query, database) during selection.
enum class SummaryMode {
  // Always the unshrunk sample summaries (QBS-Plain / FPS-Plain).
  kPlain,
  // Figure 3: per-database adaptive choice between S(D) and R(D)
  // (QBS-Shrinkage / FPS-Shrinkage).
  kAdaptiveShrinkage,
  // Always the shrunk summaries (the "universal" ablation of Section 6.2).
  kUniversalShrinkage,
};

class Metasearcher;

struct MetasearcherOptions {
  ShrinkageOptions shrinkage;
  AdaptiveOptions adaptive;
  // Unused: the adaptive decision is exact and draws nothing. Still read
  // by callers that replay the selection pipeline outside Metasearcher.
  uint64_t adaptive_seed = 0xADA9715EULL;
  // Threads SelectDatabases fans out over (the per-database adaptive
  // evaluation and the scoring). 0 and 1 both mean serial, on the calling
  // thread; a server gets its parallelism from concurrent queries (the
  // broker's workers) instead. Rankings are bit-identical for every
  // thread count — each database's decision is a deterministic function
  // of its own inputs, workers write only their own slots, and reductions
  // happen in index order on the calling thread.
  size_t num_threads = 1;

  // --- Live-refresh plumbing (set by LiveMetasearcher when it builds a
  // snapshot; static deployments leave both at their defaults). ---
  //
  // The previous snapshot and the (unique) indices whose samples differ
  // from it. A snapshot built with a prior is the prior's next epoch: its
  // epoch() is prior->epoch() + 1, each changed database's summary takes
  // that epoch and every other keeps the prior's. Its plain statistics are
  // produced via ScoringStatisticsCache::Rebuilt — O(changed × vocabulary)
  // instead of a full rescan — bit-identical to the scan, and its
  // posterior cache is derived from the prior's (shared shards for the
  // unchanged databases, empty ones for the changed). Both fields are
  // consumed during construction and cleared (the prior snapshot need not
  // outlive this one).
  const Metasearcher* prior = nullptr;
  std::vector<size_t> changed_databases;
};

// End-to-end federation layer: owns the per-database sample results and
// classifications, builds category summaries and the shrinkage model
// off-line, and answers database selection requests. This is the library's
// top-level entry point — see examples/metasearch.cpp.
class Metasearcher {
 public:
  // `hierarchy` must outlive the metasearcher. classifications[i] is the
  // category of database i — either the directory category (QBS) or the
  // sampler-derived one (FPS) — and must be a node of `hierarchy`.
  Metasearcher(const corpus::TopicHierarchy* hierarchy,
               std::vector<sampling::SampleResult> samples,
               std::vector<corpus::CategoryId> classifications,
               MetasearcherOptions options = {});
  // The same over samples held by shared pointer (none null): a snapshot
  // shares, rather than copies, the samples a refresh left unchanged.
  Metasearcher(
      const corpus::TopicHierarchy* hierarchy,
      std::vector<std::shared_ptr<const sampling::SampleResult>> samples,
      std::vector<corpus::CategoryId> classifications,
      MetasearcherOptions options = {});

  Metasearcher(const Metasearcher&) = delete;
  Metasearcher& operator=(const Metasearcher&) = delete;

  size_t num_databases() const { return samples_.size(); }
  const sampling::SampleResult& sample(size_t i) const { return *samples_[i]; }
  const summary::ContentSummary& plain_summary(size_t i) const {
    return samples_[i]->summary;
  }
  const ShrunkSummary& shrunk_summary(size_t i) const {
    return shrinkage_->shrunk(i);
  }
  const std::vector<double>& lambdas(size_t i) const {
    return shrinkage_->lambdas(i);
  }
  corpus::CategoryId classification(size_t i) const {
    return classifications_[i];
  }
  // True when database i's sample is unusable (the sampler aborted or
  // retrieved nothing). Selection scores such a database from its
  // category's aggregate summary — the shrinkage story applied as a pure
  // fallback — instead of dropping it from the federation.
  bool degraded(size_t i) const { return degraded_[i]; }
  // Count of degraded databases. Deadline-aware callers (the broker's
  // admission control) need this to replay the cost model exactly: degraded
  // databases skip the adaptive evaluation, so they never charge one.
  size_t num_degraded() const { return num_degraded_; }
  const HierarchySummaries& hierarchy_summaries() const {
    return *hierarchy_summaries_;
  }
  // The Root category summary: the "global" G of the LM scorer.
  const summary::ContentSummary& global_summary() const {
    return hierarchy_summaries_->root_aggregate();
  }
  // Threads SelectDatabases fans out over (at least 1).
  size_t num_threads() const { return num_threads_; }
  // Global epoch of this snapshot and the epoch at which database i's
  // summary was last refreshed: both 0 without options.prior (see there).
  SummaryEpoch epoch() const { return epoch_; }
  SummaryEpoch summary_epoch(size_t i) const { return summary_epochs_[i]; }
  // Hit/miss/evict counters of the per-(database, sample_df) posterior
  // cache the adaptive path reads; serving-layer instrumentation. A
  // snapshot built with options.prior counts into its prior's counters,
  // so under live refresh these are cumulative across snapshots.
  PosteriorCache::Stats posterior_cache_stats() const {
    return posterior_cache_->stats();
  }
  // Posterior grids this snapshot's cache holds, across all databases.
  size_t posterior_cache_size() const { return posterior_cache_->size(); }
  // Corpus statistics (cf(w) over the full vocabulary, mean collection
  // word count) of the unshrunk summaries, built with the snapshot. The
  // scorer prepares every SelectDatabases context from it, except
  // universal mode's, which it prepares from the shrunk summaries'
  // statistics.
  const selection::ScoringStatisticsCache& plain_statistics() const {
    return plain_statistics_;
  }

  struct SelectionOutcome {
    std::vector<selection::RankedDatabase> ranking;
    // Instrumentation for Table 10: how many databases used R(D) for this
    // query, out of how many considered.
    size_t shrinkage_applied = 0;
    size_t databases_considered = 0;
    // Databases scored from their category aggregate because their sample
    // was unusable (see degraded()).
    size_t category_fallbacks = 0;
    // OK for a complete ranking; kDeadlineExceeded when a bounded request
    // ran out of budget (the ranking is then empty — a partial ranking
    // would silently misrank the databases never evaluated).
    util::Status status;
    // Databases visited by the bounded adaptive-evaluation loop before
    // completion or expiry. 0 for unbounded or non-adaptive calls.
    size_t evaluations_completed = 0;
  };

  // Ranks all databases for the query with the given base algorithm and
  // summary mode (the full pipeline of Figure 3). The ranking is a total
  // order over the selected databases; callers take prefixes for any k.
  //
  // Each query word is resolved once per call to its row in the snapshot's
  // word table (built on the word's first use), and every statistic the
  // call reads — s_k, S(D), the shrunk mixtures R(D), the category
  // fallbacks — comes from those rows by index. The rankings are the ones
  // the public string path computes: Evaluate, the scorer's Score and
  // RankDatabases over the chosen summaries.
  //
  // Thread-safe: concurrent calls on one Metasearcher are supported. The
  // posterior cache shards its locks per database, the word table its rows
  // by word, the scoring statistics are immutable once built (the shrunk
  // set's under a mutex, by the first universal call), and the shared
  // thread pool serializes concurrent ParallelFor loops internally; each
  // call's result stays bit-identical to a serial run (pinned by
  // tests/stress/parallel_select_stress_test.cc).
  //
  // A non-null, non-infinite `deadline` bounds the call: the adaptive
  // evaluation runs serially on the calling thread, charging the deadline's
  // cost model per database (inside AdaptiveSummarySelector::Evaluate) and
  // checking expiry at every per-database boundary; the scoring phase
  // charges Costs::score_ms per database the same way. An expired request
  // aborts with outcome.status == kDeadlineExceeded instead of burning the
  // worker on a ranking nobody will wait for. Charges are plain ordered
  // double additions, so whether a given request expires — and at which
  // boundary — is bit-reproducible and exactly predictable from the cost
  // model (what broker admission control relies on). Unbounded calls are
  // untouched by all of this, including their parallel fan-out.
  //
  // `trace` (optional) parents this call's spans — select_databases,
  // word_row_build (a word's first use on this snapshot),
  // adaptive_evaluation, statistics_cache_fill (for a scorer whose
  // PrepareContext fills the corpus statistics, as CORI's does),
  // posterior_grid_build, scoring — under the caller's request trace.
  // Purely observational: an inactive context (the default) and a
  // disabled tracer both cost one relaxed load, and recorded timings
  // never flow back into scores.
  SelectionOutcome SelectDatabases(const selection::Query& query,
                                   const selection::ScoringFunction& scorer,
                                   SummaryMode mode,
                                   util::Deadline* deadline = nullptr,
                                   util::TraceContext trace = {}) const;

  // The hierarchical baseline of [17] over the same summaries
  // (QBS-Hierarchical / FPS-Hierarchical).
  std::vector<selection::RankedDatabase> SelectHierarchical(
      const selection::Query& query, const selection::ScoringFunction& scorer,
      size_t k) const;

 private:
  // Corpus statistics of the shrunk summaries, the base of every
  // universal-mode fill. Only the universal ablation reads them, so they
  // are scanned on its first call (timed in
  // serving.shrunk_statistics_build_ns), not with the snapshot.
  const selection::ScoringStatisticsCache& ShrunkStatistics() const;

  // LiveMetasearcher builds each refresh from the published snapshot's
  // samples and classifications.
  friend class LiveMetasearcher;

  const corpus::TopicHierarchy* hierarchy_;
  std::vector<std::shared_ptr<const sampling::SampleResult>> samples_;
  std::vector<corpus::CategoryId> classifications_;
  SummaryEpoch epoch_ = 0;
  std::vector<SummaryEpoch> summary_epochs_;
  std::vector<bool> degraded_;
  size_t num_degraded_ = 0;
  MetasearcherOptions options_;
  std::unique_ptr<HierarchySummaries> hierarchy_summaries_;
  std::unique_ptr<ShrinkageModel> shrinkage_;
  // Ranks over hierarchy_summaries_'s category aggregates.
  std::unique_ptr<selection::HierarchicalSelector> hierarchical_;
  AdaptiveSummarySelector adaptive_;
  selection::ScoringStatisticsCache plain_statistics_;
  // Lock order: shrunk_statistics_mu_ is terminal — the build it guards
  // reads only this snapshot's immutable summaries and takes no other lock.
  mutable util::Mutex shrunk_statistics_mu_;
  // Null until ShrunkStatistics() first builds it; never reset, and the
  // cache it points to is immutable.
  mutable std::unique_ptr<const selection::ScoringStatisticsCache>
      shrunk_statistics_ FEDSEARCH_GUARDED_BY(shrunk_statistics_mu_);
  // Derived from the prior's cache when built with options.prior (see
  // there). Never null.
  std::unique_ptr<PosteriorCache> posterior_cache_;
  // This snapshot's word rows; empty at construction. Never null.
  std::unique_ptr<WordTable> word_table_;
  size_t num_threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;  // null when serving serially
};

}  // namespace fedsearch::core

#endif  // FEDSEARCH_CORE_METASEARCHER_H_

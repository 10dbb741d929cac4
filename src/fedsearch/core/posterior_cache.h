#ifndef FEDSEARCH_CORE_POSTERIOR_CACHE_H_
#define FEDSEARCH_CORE_POSTERIOR_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fedsearch/core/adaptive.h"
#include "fedsearch/core/epoch.h"
#include "fedsearch/util/metrics.h"
#include "fedsearch/util/mutex.h"
#include "fedsearch/util/thread_annotations.h"
#include "fedsearch/util/trace.h"

namespace fedsearch::core {

// Memoizes DocFrequencyPosterior grids by (database, sample_df).
//
// The posterior p(d_k | s_k) of Appendix B is a function of
// (s_k, |S|, |D̂|, γ, grid_points) only. For a fixed database, everything
// but the sample frequency s_k is a constant of its sample, so the key
// space per database is the handful of distinct s_k values its vocabulary
// exhibits — across a query workload the hit rate approaches 100%, and
// rebuilding the grid (64+ log-weight evaluations) leaves the per-query
// evaluation path.
//
// Live refresh: a snapshot's cache is derived from its prior's (the
// two-argument constructor). The derived cache shares every shard whose
// sample the refresh left unchanged and starts each re-probed database's
// shard empty, so a refresh never alters a shard a reader may be using:
// readers on a superseded snapshot keep its grids, and each snapshot's
// working set for unchanged databases survives the refresh. Entries are
// never erased, so a grid Get returns stays valid for the life of the
// cache that returned it (and of every cache sharing its shard).
//
// Thread-safety: one mutex-guarded shard per database. The parallel
// serving layer partitions work per database, so within one
// SelectDatabases call each shard is touched by exactly one worker and
// the locks are uncontended; they exist so concurrent SelectDatabases
// calls on one Metasearcher — and calls on snapshots sharing a shard —
// remain safe.
class PosteriorCache {
 public:
  explicit PosteriorCache(size_t num_databases = 0);

  // The cache of `prior`'s next snapshot: shares every shard of `prior`
  // except the `changed` databases' (each < num_databases()), which start
  // empty. The grids those shards held count as evictions. Both caches
  // keep counting into one set of counters.
  PosteriorCache(const PosteriorCache& prior,
                 const std::vector<size_t>& changed);

  // Derivation is the only way to share shards.
  PosteriorCache(const PosteriorCache&) = delete;
  PosteriorCache& operator=(const PosteriorCache&) = delete;

  size_t num_databases() const { return shards_.size(); }

  // The posterior for word sample frequency `sample_df` in `database`,
  // built on first use from the given sample parameters. The caller must
  // pass the same (sample_size, db_size, gamma, grid_points, epoch) for
  // every call on a database's shard — they are properties of the
  // database's sample at its summary epoch, not of the query. The shard
  // records the first-seen values and FEDSEARCH_DCHECKs every later call
  // against them: a mismatch would otherwise silently return a grid built
  // from stale parameters.
  //
  // All of a database's posteriors share one PosteriorGridBasis (support,
  // γ·ln d prior, binomial log-bases), built on the shard's first miss —
  // or ahead of time via PinParams — so a miss only runs the flat
  // log-likelihood and normalization pass.
  //
  // `trace` (optional): a miss records a posterior_grid_build span under
  // the caller's request trace, so timelines show which requests paid the
  // cold-grid cost. Hits record nothing (one span per memoized build, not
  // per lookup). Observational only.
  [[nodiscard]] const DocFrequencyPosterior* Get(
      size_t database, size_t sample_df, size_t sample_size, double db_size,
      double gamma, size_t grid_points, SummaryEpoch epoch = 0,
      const util::TraceContext& trace = {});

  // Pre-registers `database`'s grid parameters at `epoch` and eagerly
  // builds its shared PosteriorGridBasis off the query path (the
  // Metasearcher calls this per database at construction). Idempotent for
  // identical parameters; a conflicting re-pin trips the same
  // FEDSEARCH_DCHECK as a mismatched Get.
  void PinParams(size_t database, size_t sample_size, double db_size,
                 double gamma, size_t grid_points, SummaryEpoch epoch = 0);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    // Memoized grids dropped because a derived cache re-probed their
    // database.
    uint64_t evictions = 0;
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
  };
  // Cumulative over every cache derived from the same root.
  [[nodiscard]] Stats stats() const;

  // Total posterior grids currently materialized (across all databases).
  [[nodiscard]] size_t size() const;

 private:
  // The per-database sample parameters every call on a shard must agree
  // on.
  struct Params {
    size_t sample_size = 0;
    double db_size = 1.0;
    double gamma = 0.0;
    size_t grid_points = 0;
    SummaryEpoch epoch = 0;
  };
  struct Shard {
    // Lock order: mu is terminal — shard code never takes another shard's
    // mu (each Get/PinParams touches exactly one shard, and derivation
    // locks one prior shard at a time) nor any other lock while holding
    // it; the recording tracer's internal lock nests inside.
    util::Mutex mu;
    bool has_params FEDSEARCH_GUARDED_BY(mu) = false;
    Params params FEDSEARCH_GUARDED_BY(mu);
    // Shared by every posterior of this database; built on first miss or
    // by PinParams.
    std::shared_ptr<const PosteriorGridBasis> basis FEDSEARCH_GUARDED_BY(mu);
    // Node-based, and never erased from: entry addresses are stable.
    std::unordered_map<size_t, DocFrequencyPosterior> by_df
        FEDSEARCH_GUARDED_BY(mu);
  };
  // Shared by a root cache and every cache derived from it (exposed via
  // stats()); Get and derivation also mirror them into the global
  // registry under posterior_cache.{hits,misses,evictions}.
  struct Counters {
    util::Counter hits;
    util::Counter misses;
    util::Counter evictions;
  };

  // Records (or validates) the shard's parameters and returns its basis,
  // building it on first use.
  const std::shared_ptr<const PosteriorGridBasis>& EnsureBasisLocked(
      size_t database, Shard& shard, const Params& params)
      FEDSEARCH_REQUIRES(shard.mu);

  std::vector<std::shared_ptr<Shard>> shards_;
  std::shared_ptr<Counters> counters_;
};

}  // namespace fedsearch::core

#endif  // FEDSEARCH_CORE_POSTERIOR_CACHE_H_

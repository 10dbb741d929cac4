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

// Memoizes DocFrequencyPosterior grids by (database, sample_df), versioned
// by summary epoch.
//
// The posterior p(d_k | s_k) of Appendix B is a function of
// (s_k, |S|, |D̂|, γ, grid_points) only. For a fixed database, everything
// but the sample frequency s_k is a constant of its sample, so the key
// space per database is the handful of distinct s_k values its vocabulary
// exhibits — across a query workload the hit rate approaches 100%, and
// rebuilding the grid (64+ log-weight evaluations) leaves the per-query
// evaluation path.
//
// Epoch contract (live refresh): each shard remembers the summary epoch it
// was last pinned/filled at. A caller presenting a NEWER epoch (the first
// query through a freshly published snapshot) lazily evicts the shard —
// the old sample's grids describe a summary that no longer exists — and
// re-pins it with the new parameters. A caller presenting an OLDER epoch
// (a reader still scoring against a snapshot published before a refresh)
// gets a privately built posterior without touching the shard at all, so
// in-flight queries on stale snapshots stay bit-identical to a run pinned
// at their epoch while never blocking the refresh. Static deployments pass
// epoch 0 everywhere and the cache behaves as before. Eviction is why Get
// returns shared_ptr: a stale-snapshot reader may hold grids across the
// very eviction that drops the shard's owning references.
//
// Thread-safety: one mutex-guarded shard per database. The parallel
// serving layer partitions work per database, so within one
// SelectDatabases call each shard is touched by exactly one worker and
// the locks are uncontended; they exist so concurrent SelectDatabases
// calls on one Metasearcher — and epoch-crossing calls on a shared
// LiveMetasearcher cache — remain safe.
class PosteriorCache {
 public:
  explicit PosteriorCache(size_t num_databases = 0);

  // Drops all entries and counters and resizes to `num_databases` shards.
  void Reset(size_t num_databases);

  size_t num_databases() const { return shards_.size(); }

  // The posterior for word sample frequency `sample_df` in `database`,
  // built on first use from the given sample parameters. The caller must
  // pass the same (sample_size, db_size, gamma, grid_points) for every
  // call with the same (database, epoch) — they are properties of the
  // database's sample at that epoch, not of the query. The shard records
  // the first-seen parameters and FEDSEARCH_DCHECKs every later same-epoch
  // call against them: a mismatch would otherwise silently return a grid
  // built from stale parameters.
  //
  // `epoch` is the caller's summary epoch for this database (see the epoch
  // contract above): newer-than-shard evicts and repins, older-than-shard
  // builds privately (a stale miss), equal hits the memo.
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
  [[nodiscard]] std::shared_ptr<const DocFrequencyPosterior> Get(
      size_t database, size_t sample_df, size_t sample_size, double db_size,
      double gamma, size_t grid_points, SummaryEpoch epoch = 0,
      const util::TraceContext& trace = {});

  // Pre-registers `database`'s grid parameters at `epoch` and eagerly
  // builds its shared PosteriorGridBasis off the query path (the
  // Metasearcher calls this per database at construction). Idempotent for
  // identical parameters; a conflicting same-epoch re-pin trips the same
  // FEDSEARCH_DCHECK as a mismatched Get. A newer epoch evicts and repins;
  // an older epoch is ignored (the shard already serves a newer summary).
  void PinParams(size_t database, size_t sample_size, double db_size,
                 double gamma, size_t grid_points, SummaryEpoch epoch = 0);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    // Memoized grids dropped because a caller presented a newer epoch.
    uint64_t evictions = 0;
    // Privately built posteriors served to callers on older epochs.
    uint64_t stale_misses = 0;
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
  };
  [[nodiscard]] Stats stats() const;

  // Total posterior grids currently materialized (across all databases).
  [[nodiscard]] size_t size() const;

 private:
  // The per-database sample parameters every same-epoch Get call must
  // agree on.
  struct Params {
    size_t sample_size = 0;
    double db_size = 1.0;
    double gamma = 0.0;
    size_t grid_points = 0;
  };
  struct Shard {
    // Lock order: mu is terminal — shard code never takes another shard's
    // mu (each Get/PinParams touches exactly one shard) nor any other lock
    // while holding it; the recording tracer's internal lock nests inside.
    util::Mutex mu;
    SummaryEpoch epoch FEDSEARCH_GUARDED_BY(mu) = 0;
    bool has_params FEDSEARCH_GUARDED_BY(mu) = false;
    Params params FEDSEARCH_GUARDED_BY(mu);
    // Shared by every posterior of this database; built on first miss or
    // by PinParams.
    std::shared_ptr<const PosteriorGridBasis> basis FEDSEARCH_GUARDED_BY(mu);
    std::unordered_map<size_t, std::shared_ptr<const DocFrequencyPosterior>>
        by_df FEDSEARCH_GUARDED_BY(mu);
  };

  // Records (or validates) the shard's parameters and returns its basis,
  // building it on first use.
  const std::shared_ptr<const PosteriorGridBasis>& EnsureBasisLocked(
      size_t database, Shard& shard, size_t sample_size, double db_size,
      double gamma, size_t grid_points) FEDSEARCH_REQUIRES(shard.mu);

  // Drops the shard's memoized state and advances it to `epoch` when the
  // caller's epoch is newer. Returns true if the caller's epoch is older
  // than the shard's (the stale-reader case).
  bool ReconcileEpochLocked(Shard& shard, SummaryEpoch epoch)
      FEDSEARCH_REQUIRES(shard.mu);

  std::vector<std::unique_ptr<Shard>> shards_;
  // Per-instance counts (exposed via stats()); Get also mirrors them into
  // the global registry under posterior_cache.{hits,misses,evictions,
  // stale_misses}.
  util::Counter hits_;
  util::Counter misses_;
  util::Counter evictions_;
  util::Counter stale_misses_;
};

}  // namespace fedsearch::core

#endif  // FEDSEARCH_CORE_POSTERIOR_CACHE_H_

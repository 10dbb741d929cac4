#include "fedsearch/core/posterior_cache.h"

#include <cmath>

#include "fedsearch/util/check.h"

namespace fedsearch::core {

PosteriorCache::PosteriorCache(size_t num_databases)
    : counters_(std::make_shared<Counters>()) {
  shards_.reserve(num_databases);
  for (size_t i = 0; i < num_databases; ++i) {
    shards_.push_back(std::make_shared<Shard>());
  }
}

PosteriorCache::PosteriorCache(const PosteriorCache& prior,
                               const std::vector<size_t>& changed)
    : shards_(prior.shards_), counters_(prior.counters_) {
  static util::Counter& global_evictions =
      util::GlobalMetrics().counter("posterior_cache.evictions");
  for (size_t i : changed) {
    FEDSEARCH_CHECK(i < shards_.size())
        << " changed database " << i << " of " << shards_.size();
    // The prior keeps serving its own shard; only this cache lets go.
    // (A repeated index finds the fresh shard and drops nothing.)
    Shard& shard = *shards_[i];
    uint64_t dropped = 0;
    {
      util::MutexLock lock(shard.mu);
      dropped = shard.by_df.size();
    }
    counters_->evictions.Add(dropped);
    global_evictions.Add(dropped);
    shards_[i] = std::make_shared<Shard>();
  }
}

const std::shared_ptr<const PosteriorGridBasis>&
PosteriorCache::EnsureBasisLocked(size_t database, Shard& shard,
                                  const Params& params) {
  if (!shard.has_params) {
    shard.params = params;
    shard.has_params = true;
  } else {
    // The cache key is (database, sample_df) only: parameters that drift
    // between calls would silently hand back grids built from stale
    // values, so the first-seen parameters are pinned per shard. A
    // re-probed database gets a fresh shard in the derived cache instead.
    FEDSEARCH_DCHECK(shard.params.sample_size == params.sample_size &&
                     shard.params.db_size == params.db_size &&
                     shard.params.gamma == params.gamma &&
                     shard.params.grid_points == params.grid_points &&
                     shard.params.epoch == params.epoch)
        << " posterior params changed for database " << database
        << ": sample_size " << shard.params.sample_size << " vs "
        << params.sample_size << ", db_size " << shard.params.db_size
        << " vs " << params.db_size << ", gamma " << shard.params.gamma
        << " vs " << params.gamma << ", grid_points "
        << shard.params.grid_points << " vs " << params.grid_points
        << ", epoch " << shard.params.epoch << " vs " << params.epoch;
  }
  if (shard.basis == nullptr) {
    shard.basis = std::make_shared<PosteriorGridBasis>(
        params.db_size, params.gamma, params.grid_points);
  }
  return shard.basis;
}

const DocFrequencyPosterior* PosteriorCache::Get(
    size_t database, size_t sample_df, size_t sample_size, double db_size,
    double gamma, size_t grid_points, SummaryEpoch epoch,
    const util::TraceContext& trace) {
  // Cache-key validity: a bad database index would silently alias another
  // shard's grids (and a different-keyed rebuild would corrupt the "one
  // grid per (database, sample_df)" invariant).
  FEDSEARCH_CHECK(database < shards_.size())
      << " database " << database << " of " << shards_.size();
  FEDSEARCH_CHECK(grid_points > 0);
  FEDSEARCH_DCHECK(sample_df <= sample_size)
      << " sample_df " << sample_df << " > sample size " << sample_size;
  FEDSEARCH_DCHECK(std::isfinite(gamma) && std::isfinite(db_size));
  Shard& shard = *shards_[database];
  util::MutexLock lock(shard.mu);
  static util::Counter& global_hits =
      util::GlobalMetrics().counter("posterior_cache.hits");
  static util::Counter& global_misses =
      util::GlobalMetrics().counter("posterior_cache.misses");
  // Pin-or-validate the shard parameters on EVERY call, hits included: a
  // hit under drifted parameters would otherwise silently serve a grid
  // built from stale values (the key is (database, sample_df) only).
  const std::shared_ptr<const PosteriorGridBasis>& basis = EnsureBasisLocked(
      database, shard,
      Params{sample_size, db_size, gamma, grid_points, epoch});
  auto it = shard.by_df.find(sample_df);
  if (it != shard.by_df.end()) {
    counters_->hits.Add();
    global_hits.Add();
    return &it->second;
  }
  counters_->misses.Add();
  global_misses.Add();
  // Building under the shard lock keeps the invariant "one grid per key"
  // without a second lookup; construction is O(grid_points) and rare.
  util::Tracer::Scope build_span("posterior_grid_build", trace);
  build_span.AttrUint("database", database).AttrUint("sample_df", sample_df);
  return &shard.by_df.try_emplace(sample_df, basis, sample_df, sample_size)
              .first->second;
}

void PosteriorCache::PinParams(size_t database, size_t sample_size,
                               double db_size, double gamma,
                               size_t grid_points, SummaryEpoch epoch) {
  FEDSEARCH_CHECK(database < shards_.size())
      << " database " << database << " of " << shards_.size();
  FEDSEARCH_CHECK(grid_points > 0);
  FEDSEARCH_DCHECK(std::isfinite(gamma) && std::isfinite(db_size));
  Shard& shard = *shards_[database];
  util::MutexLock lock(shard.mu);
  EnsureBasisLocked(database, shard,
                    Params{sample_size, db_size, gamma, grid_points, epoch});
}

PosteriorCache::Stats PosteriorCache::stats() const {
  Stats s;
  s.hits = counters_->hits.value();
  s.misses = counters_->misses.value();
  s.evictions = counters_->evictions.value();
  return s;
}

size_t PosteriorCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    total += shard->by_df.size();
  }
  return total;
}

}  // namespace fedsearch::core

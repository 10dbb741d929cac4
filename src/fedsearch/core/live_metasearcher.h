#ifndef FEDSEARCH_CORE_LIVE_METASEARCHER_H_
#define FEDSEARCH_CORE_LIVE_METASEARCHER_H_

#include <memory>
#include <vector>

#include "fedsearch/core/epoch.h"
#include "fedsearch/core/metasearcher.h"
#include "fedsearch/util/mutex.h"
#include "fedsearch/util/status.h"
#include "fedsearch/util/thread_annotations.h"

namespace fedsearch::core {

// Where serving code obtains the Metasearcher it scores against. The
// indirection lets the same broker serve either a fixed federation (a
// plain Metasearcher, wrapped by FixedMetasearcherSource) or a live one
// whose summaries refresh underneath it (LiveMetasearcher). Snapshot() is
// wait-free with respect to refreshes: it never blocks on a snapshot
// build, only on the pointer swap.
class MetasearcherSource {
 public:
  virtual ~MetasearcherSource() = default;

  // The current immutable snapshot. The returned pointer (and everything
  // reachable from it) stays valid for as long as the caller holds it,
  // even across later refreshes — per-request code captures it once and
  // scores every phase of that request against the same epoch.
  [[nodiscard]] virtual std::shared_ptr<const Metasearcher> Snapshot()
      const = 0;
};

// Adapts a caller-owned, never-refreshed Metasearcher to the source
// interface. The aliasing snapshot does not own the metasearcher: the
// referent must outlive this source and every snapshot taken from it.
class FixedMetasearcherSource : public MetasearcherSource {
 public:
  explicit FixedMetasearcherSource(const Metasearcher* meta)
      : snapshot_(std::shared_ptr<const Metasearcher>(), meta) {}

  [[nodiscard]] std::shared_ptr<const Metasearcher> Snapshot()
      const override {
    return snapshot_;
  }

 private:
  std::shared_ptr<const Metasearcher> snapshot_;
};

// One database's re-probed summary, as produced by a fresh sampler run
// against the live corpus.
struct SummaryUpdate {
  size_t database = 0;
  sampling::SampleResult sample;
  corpus::CategoryId classification = 0;
};

// Epoch-versioned Metasearcher publication with RCU-style hot swap.
//
// Readers call Snapshot() and score against an immutable Metasearcher;
// a refresh builds the NEXT snapshot from the published one, entirely off
// the publication lock — it shares the samples and classifications the
// batch leaves unchanged, and rebuilds the category aggregates, shrinkage
// model, plain corpus statistics (incrementally, via
// ScoringStatisticsCache::Rebuilt) and posterior-cache pins — and then
// swaps one shared_ptr. The snapshots are the only copy of the federation's
// state. SelectDatabases never blocks on a refresh, and a refresh never
// waits for in-flight queries: snapshots pinned by running requests are
// reclaimed by shared_ptr when the last reader drops them.
//
// Each snapshot's posterior cache is derived from its prior's: it shares
// the shards of the databases the batch left unchanged, so their working
// set of grids survives a refresh, and starts each re-probed database's
// shard empty. No refresh alters a shard that a reader of an older
// snapshot may be using.
class LiveMetasearcher : public MetasearcherSource {
 public:
  // Builds and publishes the epoch-0 snapshot over the samples and
  // classifications, which it takes without copying. `hierarchy` must
  // outlive this object. `options.prior` and `options.changed_databases`
  // are owned by the refresh machinery and must be left at their
  // defaults.
  LiveMetasearcher(const corpus::TopicHierarchy* hierarchy,
                   std::vector<sampling::SampleResult> samples,
                   std::vector<corpus::CategoryId> classifications,
                   MetasearcherOptions options = {});

  LiveMetasearcher(const LiveMetasearcher&) = delete;
  LiveMetasearcher& operator=(const LiveMetasearcher&) = delete;

  // The currently published snapshot; never null. Wait-free with respect
  // to snapshot builds (blocks only on the publication pointer swap).
  [[nodiscard]] std::shared_ptr<const Metasearcher> Snapshot()
      const override FEDSEARCH_EXCLUDES(mu_);

  // Applies one batch of re-probed summaries and publishes a new snapshot
  // at the next epoch. Serializes with other refreshers (writer_mu_); the
  // expensive snapshot build happens before the publication swap, so
  // concurrent Snapshot() callers are never blocked behind it. Updates
  // must name distinct in-range databases and classify each into a node of
  // the hierarchy; otherwise the batch returns InvalidArgument and
  // publishes nothing. An empty batch still advances the epoch (useful for
  // tests), touching no summaries.
  [[nodiscard]] util::Status ApplyRefresh(std::vector<SummaryUpdate> updates)
      FEDSEARCH_EXCLUDES(writer_mu_, mu_);

  // Epoch of the currently published snapshot.
  [[nodiscard]] SummaryEpoch epoch() const FEDSEARCH_EXCLUDES(mu_);

  // Posterior-cache counters of the published snapshot, cumulative over
  // every epoch (each snapshot's cache counts into its prior's counters).
  [[nodiscard]] PosteriorCache::Stats posterior_cache_stats() const
      FEDSEARCH_EXCLUDES(mu_);

 private:
  const corpus::TopicHierarchy* hierarchy_;
  // The caller's options; each snapshot copies them.
  MetasearcherOptions base_options_;

  // Lock order: writer_mu_ before mu_. ApplyRefresh holds writer_mu_
  // across the whole refresh (reading the published snapshot + building
  // the next) and takes mu_ only to read the published pointer and for
  // the final pointer swap; nothing acquires writer_mu_ while holding mu_.
  // LOCK-FREE: guards no member — it serializes refreshes, so that the
  // published snapshot stays the one the next is built from.
  mutable util::Mutex writer_mu_ FEDSEARCH_ACQUIRED_BEFORE(mu_);

  // Lock order: mu_ is terminal — it guards only the published pointer
  // and is never held while taking another lock (the swap and the read
  // are pointer copies).
  mutable util::Mutex mu_;
  std::shared_ptr<const Metasearcher> current_ FEDSEARCH_GUARDED_BY(mu_);
};

}  // namespace fedsearch::core

#endif  // FEDSEARCH_CORE_LIVE_METASEARCHER_H_

#include "fedsearch/core/metasearcher.h"

#include <algorithm>
#include <utility>

#include "fedsearch/util/check.h"
#include "fedsearch/util/metrics.h"
#include "fedsearch/util/trace.h"

namespace fedsearch::core {

namespace {

struct ServingMetrics {
  util::Counter& queries = util::GlobalMetrics().counter("serving.queries");
  util::Counter& category_fallbacks =
      util::GlobalMetrics().counter("serving.category_fallbacks");
  util::Counter& shrinkage_applied =
      util::GlobalMetrics().counter("serving.shrinkage_applied");
  util::Histogram& select_ns =
      util::GlobalMetrics().histogram("serving.select_databases_ns");
  util::Histogram& build_ns =
      util::GlobalMetrics().histogram("serving.metasearcher_build_ns");
  util::Histogram& shrunk_statistics_build_ns = util::GlobalMetrics().histogram(
      "serving.shrunk_statistics_build_ns");
};

ServingMetrics& Metrics() {
  static ServingMetrics* m = new ServingMetrics();
  return *m;
}

const char* ModeName(SummaryMode mode) {
  switch (mode) {
    case SummaryMode::kPlain:
      return "plain";
    case SummaryMode::kAdaptiveShrinkage:
      return "adaptive_shrinkage";
    case SummaryMode::kUniversalShrinkage:
      return "universal_shrinkage";
  }
  return "unknown";
}

}  // namespace

Metasearcher::Metasearcher(const corpus::TopicHierarchy* hierarchy,
                           std::vector<sampling::SampleResult> samples,
                           std::vector<corpus::CategoryId> classifications,
                           MetasearcherOptions options)
    : hierarchy_(hierarchy),
      samples_(std::move(samples)),
      classifications_(std::move(classifications)),
      options_(std::move(options)),
      adaptive_(options_.adaptive) {
  FEDSEARCH_TRACE_SPAN("metasearcher_build");
  util::ScopedTimer build_timer(Metrics().build_ns);
  degraded_.reserve(samples_.size());
  for (const sampling::SampleResult& s : samples_) {
    degraded_.push_back(
        s.sample_size == 0 || s.summary.vocabulary_size() == 0 ||
        s.health.outcome == sampling::SamplingOutcome::kAborted);
    if (degraded_.back()) ++num_degraded_;
  }
  std::vector<const summary::ContentSummary*> summary_ptrs;
  summary_ptrs.reserve(samples_.size());
  for (const sampling::SampleResult& s : samples_) {
    summary_ptrs.push_back(&s.summary);
  }
  hierarchy_summaries_ = std::make_unique<HierarchySummaries>(
      hierarchy_, summary_ptrs, classifications_);
  std::vector<size_t> sample_sizes;
  sample_sizes.reserve(samples_.size());
  for (const sampling::SampleResult& s : samples_) {
    sample_sizes.push_back(s.sample_size);
  }
  shrinkage_ = std::make_unique<ShrinkageModel>(
      hierarchy_summaries_.get(), std::move(sample_sizes), options_.shrinkage);
  std::vector<const summary::SummaryView*> plain_views(summary_ptrs.begin(),
                                                       summary_ptrs.end());
  // The hierarchical baseline ranks over the same category aggregates
  // shrinkage mixes; this snapshot owns them.
  std::vector<const summary::SummaryView*> category_views;
  category_views.reserve(hierarchy_->size());
  for (size_t c = 0; c < hierarchy_->size(); ++c) {
    category_views.push_back(
        &hierarchy_summaries_->aggregate(static_cast<corpus::CategoryId>(c)));
  }
  hierarchical_ = std::make_unique<selection::HierarchicalSelector>(
      hierarchy_, plain_views, classifications_, std::move(category_views));

  // Serving-layer state: the samples are immutable for this snapshot's
  // lifetime, so the plain corpus statistics are computed once (off the
  // per-query hot path) and the posterior cache only invalidates by epoch
  // under live refresh.
  FEDSEARCH_CHECK(options_.summary_epochs.empty() ||
                  options_.summary_epochs.size() == samples_.size())
      << " summary_epochs covers " << options_.summary_epochs.size()
      << " databases, federation has " << samples_.size();
  if (options_.prior != nullptr) {
    // Incremental path (live refresh): delta-update the prior snapshot's
    // plain statistics for the re-probed databases only; bit-identical to
    // the full scan below.
    const Metasearcher& prior = *options_.prior;
    FEDSEARCH_CHECK(prior.num_databases() == samples_.size())
        << " prior snapshot has " << prior.num_databases()
        << " databases, this one " << samples_.size();
    std::vector<const summary::SummaryView*> prior_views;
    prior_views.reserve(prior.num_databases());
    for (size_t i = 0; i < prior.num_databases(); ++i) {
      prior_views.push_back(&prior.samples_[i].summary);
    }
    plain_statistics_ = selection::ScoringStatisticsCache::Rebuilt(
        prior.plain_statistics_, plain_views, prior_views,
        options_.changed_databases);
  } else {
    plain_statistics_ = selection::ScoringStatisticsCache(plain_views);
  }
  // The prior snapshot and change list are construction-time inputs only;
  // clearing them keeps options_ free of a pointer into a snapshot that
  // the refresh loop will drop.
  options_.prior = nullptr;
  options_.changed_databases.clear();
  options_.changed_databases.shrink_to_fit();
  if (options_.shared_posterior_cache != nullptr) {
    // A cache shared across snapshots is never Reset here — its value is
    // exactly the surviving working set; epoch keys evict the re-probed
    // shards lazily.
    posterior_cache_ = options_.shared_posterior_cache;
    FEDSEARCH_CHECK(posterior_cache_->num_databases() == samples_.size())
        << " shared posterior cache covers "
        << posterior_cache_->num_databases() << " databases, federation has "
        << samples_.size();
  } else {
    posterior_cache_ = std::make_shared<PosteriorCache>(samples_.size());
  }
  // Pin each shard's posterior parameters and build the shared grid basis
  // (support + γ·ln d prior + binomial log-bases) here, off the query
  // path: the parameters are constants of the database's sample at its
  // epoch, and pinning them up front turns any later mismatch into a
  // DCHECK instead of a silently stale grid. Degraded databases never
  // reach the adaptive evaluation, so their shards stay unpinned.
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (degraded_[i]) continue;
    const sampling::SampleResult& s = samples_[i];
    posterior_cache_->PinParams(i, s.sample_size,
                                std::max(1.0, s.estimated_db_size),
                                PowerLawGamma(s.mandelbrot_alpha),
                                options_.adaptive.grid_points,
                                summary_epoch(i));
  }
  num_threads_ = std::max<size_t>(options_.num_threads, 1);
  if (num_threads_ > 1) {
    pool_ = std::make_unique<util::ThreadPool>(num_threads_);
  }
  util::GlobalMetrics().gauge("serving.threads").Set(
      static_cast<double>(num_threads_));
  util::GlobalMetrics().gauge("serving.databases").Set(
      static_cast<double>(samples_.size()));
}

Metasearcher::SelectionOutcome Metasearcher::SelectDatabases(
    const selection::Query& query, const selection::ScoringFunction& scorer,
    SummaryMode mode, util::Deadline* deadline,
    util::TraceContext trace) const {
  util::Tracer::Scope select_span("select_databases", trace);
  util::ScopedTimer select_timer(Metrics().select_ns);
  Metrics().queries.Add();
  const size_t n = samples_.size();
  const bool bounded = deadline != nullptr && !deadline->infinite();
  select_span.AttrStr("mode", ModeName(mode))
      .AttrUint("databases", n)
      .AttrBool("bounded", bounded);
  SelectionOutcome outcome;
  outcome.databases_considered = n;
  if (bounded && deadline->expired()) {
    select_span.AttrStr("status", "expired_at_entry");
    outcome.status = util::Status::DeadlineExceeded(
        "deadline expired before selection started");
    return outcome;
  }

  // Content Summary Selection step (Figure 3): pick A(Di) per database.
  std::vector<const summary::SummaryView*> chosen(n);
  switch (mode) {
    case SummaryMode::kPlain:
      for (size_t i = 0; i < n; ++i) chosen[i] = &samples_[i].summary;
      break;
    case SummaryMode::kUniversalShrinkage:
      for (size_t i = 0; i < n; ++i) chosen[i] = &shrinkage_->shrunk(i);
      outcome.shrinkage_applied = n;
      break;
    case SummaryMode::kAdaptiveShrinkage: {
      util::Tracer::Scope adaptive_span("adaptive_evaluation",
                                        select_span.context());
      PosteriorCache::Stats cache_before;
      if (adaptive_span.recording()) cache_before = posterior_cache_->stats();
      // The uncertainty computation scores against the unshrunk summaries'
      // corpus statistics.
      selection::ScoringContext decision_context;
      decision_context.ranked_summaries.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        decision_context.ranked_summaries.push_back(&samples_[i].summary);
      }
      decision_context.global_summary =
          &hierarchy_summaries_->root_aggregate();
      plain_statistics_.FillContext(query, decision_context,
                                    adaptive_span.context());

      // The decision is exact and deterministic, so it is the same for any
      // thread count. Evaluate never reads its Rng parameter; one
      // placeholder serves every database.
      util::Rng unused_rng(0);

      std::vector<uint8_t> applied(n, 0);
      const util::TraceContext adaptive_ctx = adaptive_span.context();
      const auto evaluate_one = [&](size_t i) {
        if (degraded_[i]) {
          // No sample to estimate uncertainty from; the fallback below
          // supplies the summary. (No evaluation, so no deadline charge —
          // cost-model replays must subtract num_degraded().)
          chosen[i] = &samples_[i].summary;
          return;
        }
        const AdaptiveSummarySelector::Uncertainty u =
            adaptive_.Evaluate(query, samples_[i], scorer, decision_context,
                               unused_rng, posterior_cache_.get(), i,
                               summary_epoch(i), bounded ? deadline : nullptr,
                               adaptive_ctx);
        applied[i] = u.use_shrinkage ? 1 : 0;
        chosen[i] =
            u.use_shrinkage
                ? static_cast<const summary::SummaryView*>(
                      &shrinkage_->shrunk(i))
                : static_cast<const summary::SummaryView*>(
                      &samples_[i].summary);
      };
      if (bounded) {
        // Bounded requests evaluate serially on the calling thread: the
        // deadline charges then land in index order, making the expiry
        // boundary a pure function of the cost model. They give up the
        // per-database fan-out that unbounded calls use below; under load,
        // throughput comes from inter-query parallelism (broker workers).
        for (size_t i = 0; i < n; ++i) {
          if (deadline->expired()) break;
          evaluate_one(i);
          ++outcome.evaluations_completed;
        }
        if (deadline->expired()) {
          if (adaptive_span.recording()) {
            const PosteriorCache::Stats cache_after = posterior_cache_->stats();
            adaptive_span.AttrUint("evaluated", outcome.evaluations_completed)
                .AttrUint("cache_hits", cache_after.hits - cache_before.hits)
                .AttrUint("cache_misses",
                          cache_after.misses - cache_before.misses);
          }
          select_span.AttrStr("status", "expired_in_adaptive");
          outcome.status = util::Status::DeadlineExceeded(
              "deadline expired during adaptive evaluation");
          return outcome;
        }
      } else if (pool_ != nullptr) {
        pool_->ParallelFor(n, evaluate_one);
      } else {
        for (size_t i = 0; i < n; ++i) evaluate_one(i);
      }
      for (size_t i = 0; i < n; ++i) outcome.shrinkage_applied += applied[i];
      if (adaptive_span.recording()) {
        // Counter deltas across this span; under concurrent callers they
        // include the neighbors' traffic (observational, labeled as such).
        const PosteriorCache::Stats cache_after = posterior_cache_->stats();
        adaptive_span.AttrUint("evaluated", n)
            .AttrUint("cache_hits", cache_after.hits - cache_before.hits)
            .AttrUint("cache_misses", cache_after.misses - cache_before.misses)
            .AttrUint("shrinkage_applied", outcome.shrinkage_applied);
        if (bounded) {
          adaptive_span.AttrDouble("deadline_remaining_ms",
                                   deadline->remaining_ms());
        }
      }
      break;
    }
  }

  // Graceful degradation (all modes): a database whose sampling run came
  // back empty is scored from its category's aggregate summary — the
  // shrinkage hierarchy used as a pure fallback — so remote faults can
  // demote a database but never silently drop it from the federation. When
  // the database is alone in its category the aggregate holds only its own
  // empty summary, so walk up toward the root until an ancestor aggregate
  // has actual content (the root aggregate pools every database).
  for (size_t i = 0; i < n; ++i) {
    if (!degraded_[i]) continue;
    corpus::CategoryId category = classifications_[i];
    while (
        hierarchy_summaries_->aggregate(category).vocabulary_size() == 0 &&
        category != hierarchy_->root()) {
      category = hierarchy_->node(category).parent;
    }
    chosen[i] = &hierarchy_summaries_->aggregate(category);
    ++outcome.category_fallbacks;
    if (mode == SummaryMode::kUniversalShrinkage) --outcome.shrinkage_applied;
  }

  // Scoring + Ranking steps over the chosen summaries. Bounded requests
  // pre-charge the scoring cost per database in index order (the same
  // positions the cost-model replay sums), aborting at the first boundary
  // the budget no longer covers.
  {
    util::Tracer::Scope scoring_span("scoring", select_span.context());
    scoring_span.AttrUint("databases", n);
    if (bounded) {
      // Abort at the first boundary the budget no longer covers: after the
      // charge for database i, a dead budget with databases still ahead
      // means the ranking cannot complete in time. (Expiry on the *final*
      // charge falls through — that is the completed-late rule below, which
      // discards the ranking rather than never producing it.) A budget
      // already dead from the adaptive phase aborts before any charge.
      const bool born_dead = deadline->expired();
      for (size_t i = 0; i < n; ++i) {
        if (born_dead || (!deadline->ChargeScore() && i + 1 < n)) {
          select_span.AttrStr("status", "expired_in_scoring");
          outcome.status = util::Status::DeadlineExceeded(
              "deadline expired before scoring completed");
          return outcome;
        }
      }
    }
    selection::ScoringContext context;
    context.ranked_summaries = chosen;
    context.global_summary = &hierarchy_summaries_->root_aggregate();
    (mode == SummaryMode::kUniversalShrinkage ? ShrunkStatistics()
                                              : plain_statistics_)
        .FillContext(query, context, scoring_span.context());
    outcome.ranking =
        selection::RankDatabases(query, chosen, scorer, context, pool_.get());
  }
  Metrics().category_fallbacks.Add(outcome.category_fallbacks);
  Metrics().shrinkage_applied.Add(outcome.shrinkage_applied);
  if (bounded && deadline->expired()) {
    // The last charge crossed the budget: the ranking exists but arrived
    // past the deadline, so the caller must not serve it.
    select_span.AttrStr("status", "completed_late");
    outcome.status = util::Status::DeadlineExceeded(
        "selection completed past the deadline");
    outcome.ranking.clear();
    return outcome;
  }
  select_span.AttrStr("status", "ok")
      .AttrUint("fallbacks", outcome.category_fallbacks);
  if (bounded) {
    select_span.AttrDouble("deadline_remaining_ms", deadline->remaining_ms());
  }
  return outcome;
}

const selection::ScoringStatisticsCache& Metasearcher::ShrunkStatistics()
    const {
  util::MutexLock lock(shrunk_statistics_mu_);
  if (shrunk_statistics_ == nullptr) {
    // Shrinkage couples every database through the category aggregates,
    // so one re-probed sample can perturb every shrunk summary: there is
    // no per-database delta from a prior snapshot, only this full scan.
    util::ScopedTimer build_timer(Metrics().shrunk_statistics_build_ns);
    std::vector<const summary::SummaryView*> shrunk_views;
    shrunk_views.reserve(samples_.size());
    for (size_t i = 0; i < samples_.size(); ++i) {
      shrunk_views.push_back(&shrinkage_->shrunk(i));
    }
    shrunk_statistics_ =
        std::make_unique<const selection::ScoringStatisticsCache>(
            shrunk_views);
  }
  return *shrunk_statistics_;
}

std::vector<selection::RankedDatabase> Metasearcher::SelectHierarchical(
    const selection::Query& query, const selection::ScoringFunction& scorer,
    size_t k) const {
  return hierarchical_->Select(query, k, scorer, plain_statistics_);
}

}  // namespace fedsearch::core

#include "fedsearch/core/metasearcher.h"

#include <algorithm>
#include <span>
#include <utility>

#include "fedsearch/util/check.h"
#include "fedsearch/util/metrics.h"
#include "fedsearch/util/small_buffer.h"
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

// Whether every word of the sample's sample_df is a word of its summary,
// as the samplers guarantee: the word rows read s_k only where S(D) holds
// the word.
bool SampleWordsInSummary(const sampling::SampleResult& sample) {
  return std::all_of(sample.sample_df.begin(), sample.sample_df.end(),
                     [&](const auto& entry) {
                       return sample.summary.words().contains(entry.first);
                     });
}

std::vector<std::shared_ptr<const sampling::SampleResult>> Share(
    std::vector<sampling::SampleResult> samples) {
  std::vector<std::shared_ptr<const sampling::SampleResult>> shared;
  for (sampling::SampleResult& s : samples) {
    shared.push_back(std::make_shared<sampling::SampleResult>(std::move(s)));
  }
  return shared;
}

}  // namespace

Metasearcher::Metasearcher(const corpus::TopicHierarchy* hierarchy,
                           std::vector<sampling::SampleResult> samples,
                           std::vector<corpus::CategoryId> classifications,
                           MetasearcherOptions options)
    : Metasearcher(hierarchy, Share(std::move(samples)),
                   std::move(classifications), std::move(options)) {}

Metasearcher::Metasearcher(
    const corpus::TopicHierarchy* hierarchy,
    std::vector<std::shared_ptr<const sampling::SampleResult>> samples,
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
  for (const auto& s : samples_) {
    degraded_.push_back(
        s->sample_size == 0 || s->summary.vocabulary_size() == 0 ||
        s->health.outcome == sampling::SamplingOutcome::kAborted);
    if (degraded_.back()) ++num_degraded_;
  }
  std::vector<const sampling::SampleResult*> sample_ptrs;
  std::vector<const summary::ContentSummary*> summary_ptrs;
  sample_ptrs.reserve(samples_.size());
  summary_ptrs.reserve(samples_.size());
  for (const auto& s : samples_) {
    sample_ptrs.push_back(s.get());
    summary_ptrs.push_back(&s->summary);
  }
  hierarchy_summaries_ = std::make_unique<HierarchySummaries>(
      hierarchy_, summary_ptrs, classifications_);
  std::vector<size_t> sample_sizes;
  sample_sizes.reserve(samples_.size());
  for (const auto& s : samples_) {
    sample_sizes.push_back(s->sample_size);
  }
  shrinkage_ = std::make_unique<ShrinkageModel>(
      hierarchy_summaries_.get(), std::move(sample_sizes), options_.shrinkage);
  word_table_ = std::make_unique<WordTable>(std::move(sample_ptrs),
                                            hierarchy_summaries_.get());
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
  // per-query hot path) and no posterior-cache grid ever goes stale.
  if (options_.prior != nullptr) {
    // Incremental path (live refresh): delta-update the prior snapshot's
    // plain statistics for the re-probed databases only; bit-identical to
    // the full scan below. This snapshot is the prior's next epoch, and
    // its posterior cache keeps the prior's grids for every database the
    // refresh left unchanged.
    const Metasearcher& prior = *options_.prior;
    FEDSEARCH_CHECK(prior.num_databases() == samples_.size())
        << " prior snapshot has " << prior.num_databases()
        << " databases, this one " << samples_.size();
    std::vector<const summary::SummaryView*> prior_views;
    prior_views.reserve(prior.num_databases());
    for (size_t i = 0; i < prior.num_databases(); ++i) {
      prior_views.push_back(&prior.plain_summary(i));
    }
    plain_statistics_ = selection::ScoringStatisticsCache::Rebuilt(
        prior.plain_statistics_, plain_views, prior_views,
        options_.changed_databases);
    // Rebuilt has checked every changed index.
    epoch_ = prior.epoch_ + 1;
    summary_epochs_ = prior.summary_epochs_;
    for (size_t i : options_.changed_databases) summary_epochs_[i] = epoch_;
    posterior_cache_ = std::make_unique<PosteriorCache>(
        *prior.posterior_cache_, options_.changed_databases);
  } else {
    summary_epochs_.assign(samples_.size(), 0);
    plain_statistics_ = selection::ScoringStatisticsCache(plain_views);
    posterior_cache_ = std::make_unique<PosteriorCache>(samples_.size());
  }
  // The samples new at this epoch: every one of a fresh snapshot, the
  // re-probed ones of a derived snapshot.
  for (size_t i = 0; i < samples_.size(); ++i) {
    FEDSEARCH_DCHECK(summary_epochs_[i] != epoch_ ||
                     SampleWordsInSummary(*samples_[i]))
        << " database " << i << "'s sample_df has a word its summary lacks";
  }
  // The prior snapshot and change list are construction-time inputs only;
  // clearing them keeps options_ free of a pointer into a snapshot that
  // the refresh loop will drop.
  options_.prior = nullptr;
  options_.changed_databases.clear();
  options_.changed_databases.shrink_to_fit();
  // Pin each shard's posterior parameters and build the shared grid basis
  // (support + γ·ln d prior + binomial log-bases) here, off the query
  // path: the parameters are constants of the database's sample at its
  // epoch, and pinning them up front turns any later mismatch into a
  // DCHECK instead of a silently stale grid. A shard shared with the prior
  // is already pinned with these values. Degraded databases never reach
  // the adaptive evaluation, so their shards stay unpinned.
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (degraded_[i]) continue;
    const sampling::SampleResult& s = *samples_[i];
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

  // Resolve each query position's word to its row once. A repeated term
  // resolves to the same row, so the distinct terms, in first-occurrence
  // order, are the distinct row addresses, each with its first position
  // and occurrence count.
  const size_t terms = query.terms.size();
  std::vector<const WordRow*> rows(terms);
  std::vector<AdaptiveSummarySelector::ResolvedTerm> distinct;
  distinct.reserve(terms);
  for (size_t t = 0; t < terms; ++t) {
    rows[t] = &word_table_->Row(query.terms[t], select_span.context());
    const auto same = std::find_if(
        distinct.begin(), distinct.end(),
        [&](const AdaptiveSummarySelector::ResolvedTerm& d) {
          return rows[d.first] == rows[t];
        });
    if (same != distinct.end()) {
      ++same->count;
    } else {
      distinct.push_back(AdaptiveSummarySelector::ResolvedTerm{t, 1, 0, {}});
    }
  }
  // stats[i * terms + t] is the statistics of position t's word in
  // database i's S(D), zeros where S(D) lacks it: database i's slice is
  // the per-position input of its plain score as it stands.
  std::vector<summary::WordStats> stats(n * terms);
  for (size_t t = 0; t < terms; ++t) {
    rows[t]->ForEachDatabase(
        [&](size_t i, const WordRow::DatabaseEntry& entry) {
          stats[i * terms + t] = entry.stats;
        });
  }

  // Content Summary Selection step (Figure 3): pick A(Di) per database.
  // `shrunk[i]` marks R(D) and fallback[i] the category a degraded
  // database is scored from; the statistics come from the rows either way.
  std::vector<const summary::SummaryView*> chosen(n);
  std::vector<uint8_t> shrunk(n, 0);
  switch (mode) {
    case SummaryMode::kPlain:
      for (size_t i = 0; i < n; ++i) chosen[i] = &samples_[i]->summary;
      break;
    case SummaryMode::kUniversalShrinkage:
      for (size_t i = 0; i < n; ++i) chosen[i] = &shrinkage_->shrunk(i);
      std::fill(shrunk.begin(), shrunk.end(), 1);
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
        decision_context.ranked_summaries.push_back(&samples_[i]->summary);
      }
      decision_context.global_summary =
          &hierarchy_summaries_->root_aggregate();
      scorer.PrepareContext(query, plain_statistics_, decision_context,
                            adaptive_span.context());

      // Database i's distinct terms, resolved from the rows, occupy
      // resolved[i * d, (i + 1) * d) for d distinct terms.
      const size_t d = distinct.size();
      std::vector<AdaptiveSummarySelector::ResolvedTerm> resolved;
      resolved.reserve(n * d);
      for (size_t i = 0; i < n; ++i) {
        resolved.insert(resolved.end(), distinct.begin(), distinct.end());
      }
      for (size_t k = 0; k < d; ++k) {
        rows[distinct[k].first]->ForEachDatabase(
            [&](size_t i, const WordRow::DatabaseEntry& entry) {
              resolved[i * d + k].sample_df = entry.sample_df;
              resolved[i * d + k].stats = entry.stats;
            });
      }
      const util::TraceContext adaptive_ctx = adaptive_span.context();
      const auto evaluate_one = [&](size_t i) {
        chosen[i] = &samples_[i]->summary;
        if (degraded_[i]) {
          // No sample to estimate uncertainty from; the fallback below
          // supplies the summary. (No evaluation, so no deadline charge —
          // cost-model replays must subtract num_degraded().)
          return;
        }
        const std::span<const AdaptiveSummarySelector::ResolvedTerm> own(
            resolved.data() + i * d, d);
        const AdaptiveSummarySelector::Uncertainty u =
            adaptive_.EvaluateResolved(query, own, *samples_[i], scorer,
                                       decision_context,
                                       posterior_cache_.get(), i,
                                       summary_epoch(i),
                                       bounded ? deadline : nullptr,
                                       adaptive_ctx);
        if (u.use_shrinkage) {
          shrunk[i] = 1;
          chosen[i] = &shrinkage_->shrunk(i);
        }
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
      for (size_t i = 0; i < n; ++i) outcome.shrinkage_applied += shrunk[i];
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
  std::vector<corpus::CategoryId> fallback(n, corpus::kInvalidCategory);
  for (size_t i = 0; i < n; ++i) {
    if (!degraded_[i]) continue;
    corpus::CategoryId category = classifications_[i];
    while (
        hierarchy_summaries_->aggregate(category).vocabulary_size() == 0 &&
        category != hierarchy_->root()) {
      category = hierarchy_->node(category).parent;
    }
    fallback[i] = category;
    chosen[i] = &hierarchy_summaries_->aggregate(category);
    ++outcome.category_fallbacks;
    if (shrunk[i] != 0) {
      shrunk[i] = 0;
      --outcome.shrinkage_applied;
    }
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
    scorer.PrepareContext(query,
                          mode == SummaryMode::kUniversalShrinkage
                              ? ShrunkStatistics()
                              : plain_statistics_,
                          context, scoring_span.context());
    std::vector<double> scores(n, 0.0);
    std::vector<double> defaults(n, 0.0);
    const auto score_one = [&](size_t i) {
      // Database i's statistics per query position: its S(D) slice,
      // rewritten in place when it scores from a category aggregate or
      // from R(D).
      const std::span<summary::WordStats> own(stats.data() + i * terms,
                                              terms);
      if (fallback[i] != corpus::kInvalidCategory) {
        for (size_t t = 0; t < terms; ++t) {
          own[t] = rows[t]->category(fallback[i]);
        }
      } else if (shrunk[i] != 0) {
        // R(D)'s mixture kernel over the row's entries for the chain: the
        // categories on i's path, root first, then S(D).
        const std::vector<corpus::CategoryId>& path = shrinkage_->path(i);
        util::SmallBuffer<summary::WordStats, 8> levels(path.size() + 1);
        const std::span<summary::WordStats> chain = levels.span();
        for (size_t t = 0; t < terms; ++t) {
          for (size_t j = 0; j < path.size(); ++j) {
            chain[j] = rows[t]->category(path[j]);
          }
          chain[path.size()] = own[t];
          own[t] = shrinkage_->shrunk(i).MixtureStats(chain);
        }
      }
      scores[i] = scorer.ScoreFromStats(query, *chosen[i], own, context);
      defaults[i] = scorer.DefaultScore(query, *chosen[i], context);
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(n, score_one);
    } else {
      for (size_t i = 0; i < n; ++i) score_one(i);
    }
    outcome.ranking = selection::RankScores(scores, defaults);
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

#include "layers.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>

#include "fedsearch/core/adaptive.h"
#include "fedsearch/core/hierarchy_summaries.h"
#include "fedsearch/core/shrinkage.h"
#include "fedsearch/corpus/topic_model.h"
#include "fedsearch/selection/flat_ranker.h"

namespace perfbench {

size_t QueryPoolSize(size_t queries) { return 3 * queries; }

std::vector<size_t> DrawQueries(const corpus::Testbed& bed, size_t count,
                                uint64_t seed,
                                std::vector<selection::Query>& queries) {
  std::vector<size_t> order(bed.queries().size());
  for (size_t q = 0; q < order.size(); ++q) order[q] = q;
  util::Rng rng(seed);
  rng.Shuffle(order);
  std::vector<size_t> drawn;
  std::unordered_set<std::string> seen;
  for (size_t q : order) {
    if (drawn.size() == count) break;
    selection::Query query{bed.analyzer().Analyze(bed.queries()[q].text)};
    std::string key;
    for (const std::string& t : query.terms) key += t + ' ';
    if (query.terms.empty() || !seen.insert(key).second) continue;
    queries.push_back(std::move(query));
    drawn.push_back(q);
  }
  if (drawn.size() < count) {
    Fail("only %zu distinct queries in the pool, %zu needed", drawn.size(),
         count);
  }
  return drawn;
}

sampling::QbsSampler MakeSampler(const corpus::Testbed& bed) {
  sampling::QbsOptions options;
  options.target_documents = 300;
  options.build.frequency_estimation = true;
  return sampling::QbsSampler(options,
                              corpus::BuildSamplerDictionary(bed.model(), 20));
}

Federation SampleFederation(const corpus::Testbed& bed,
                            const sampling::QbsSampler& sampler,
                            uint64_t stream_seed) {
  Federation federation;
  util::Rng rng(stream_seed);
  for (size_t i = 0; i < bed.num_databases(); ++i) {
    util::Rng db_rng = rng.Fork();
    SpanLog::Scope span(Spans(), "sampling.probe_db", i);
    federation.samples.push_back(sampler.Sample(bed.database(i), db_rng));
    federation.classifications.push_back(bed.directory_category_of(i));
    federation.queries_sent += federation.samples.back().queries_sent;
  }
  return federation;
}

DecisionCounts DecisionCounts::Now() {
  DecisionCounts c;
  c.evaluations = CounterValue("adaptive.evaluations");
  c.chose_shrunk = CounterValue("adaptive.chose_shrunk");
  c.gate_complete_sample = CounterValue("adaptive.gate_complete_sample");
  c.gate_no_mixed_evidence = CounterValue("adaptive.gate_no_mixed_evidence");
  c.draws = HistogramSum("adaptive.draws");
  c.posterior_hits = CounterValue("posterior_cache.hits");
  c.posterior_misses = CounterValue("posterior_cache.misses");
  c.posterior_evictions = CounterValue("posterior_cache.evictions");
  c.posterior_stale_misses = CounterValue("posterior_cache.stale_misses");
  c.pool_loops_pooled = CounterValue("threadpool.loops_pooled");
  c.pool_loops_inline = CounterValue("threadpool.loops_inline");
  return c;
}

DecisionCounts DecisionCounts::operator-(const DecisionCounts& b) const {
  DecisionCounts c;
  c.evaluations = evaluations - b.evaluations;
  c.chose_shrunk = chose_shrunk - b.chose_shrunk;
  c.gate_complete_sample = gate_complete_sample - b.gate_complete_sample;
  c.gate_no_mixed_evidence = gate_no_mixed_evidence - b.gate_no_mixed_evidence;
  c.draws = draws - b.draws;
  c.posterior_hits = posterior_hits - b.posterior_hits;
  c.posterior_misses = posterior_misses - b.posterior_misses;
  c.posterior_evictions = posterior_evictions - b.posterior_evictions;
  c.posterior_stale_misses = posterior_stale_misses - b.posterior_stale_misses;
  c.pool_loops_pooled = pool_loops_pooled - b.pool_loops_pooled;
  c.pool_loops_inline = pool_loops_inline - b.pool_loops_inline;
  return c;
}

bool DecisionCounts::operator==(const DecisionCounts& o) const {
  return evaluations == o.evaluations && chose_shrunk == o.chose_shrunk &&
         gate_complete_sample == o.gate_complete_sample &&
         gate_no_mixed_evidence == o.gate_no_mixed_evidence &&
         draws == o.draws && posterior_hits == o.posterior_hits &&
         posterior_misses == o.posterior_misses &&
         posterior_evictions == o.posterior_evictions &&
         posterior_stale_misses == o.posterior_stale_misses &&
         pool_loops_pooled == o.pool_loops_pooled &&
         pool_loops_inline == o.pool_loops_inline;
}

void AddDecisionMetrics(Report& report, const DecisionCounts& c) {
  report.AddCount("core.adaptive_evaluations", c.evaluations);
  report.AddCount("core.chose_shrunk", c.chose_shrunk);
  report.AddCount("core.gate_complete_sample", c.gate_complete_sample);
  report.AddCount("core.gate_no_mixed_evidence", c.gate_no_mixed_evidence);
  report.AddCount("core.adaptive_draws", c.draws);
  report.Add("core.chose_shrunk_share",
             c.evaluations > 0 ? static_cast<double>(c.chose_shrunk) /
                                     static_cast<double>(c.evaluations)
                               : 0.0,
             "ratio", c.evaluations);
  report.AddCount("core.posterior_hits", c.posterior_hits);
  report.AddCount("core.posterior_misses", c.posterior_misses);
  report.AddCount("core.posterior_evictions", c.posterior_evictions);
  report.AddCount("core.posterior_stale_misses", c.posterior_stale_misses);
  const uint64_t lookups = c.posterior_hits + c.posterior_misses;
  report.Add("core.posterior_hit_rate",
             lookups > 0 ? static_cast<double>(c.posterior_hits) /
                               static_cast<double>(lookups)
                         : 0.0,
             "ratio", lookups);
  report.AddCount("util.pool_loops_pooled", c.pool_loops_pooled);
  report.AddCount("util.pool_loops_inline", c.pool_loops_inline);
}

BuildSplit ReplayBuild(const core::Metasearcher& snapshot,
                       const core::Metasearcher* prior,
                       const std::vector<size_t>& changed) {
  const size_t n = snapshot.num_databases();
  const corpus::TopicHierarchy* hierarchy =
      &snapshot.hierarchy_summaries().hierarchy();
  std::vector<const summary::ContentSummary*> summaries;
  std::vector<corpus::CategoryId> classifications;
  std::vector<size_t> sample_sizes;
  std::vector<const summary::SummaryView*> plain_views;
  for (size_t i = 0; i < n; ++i) {
    summaries.push_back(&snapshot.plain_summary(i));
    classifications.push_back(snapshot.classification(i));
    sample_sizes.push_back(snapshot.sample(i).sample_size);
    plain_views.push_back(&snapshot.plain_summary(i));
  }
  BuildSplit split;
  SpanLog::Scope replay(Spans(), "replay.build");
  SpanLog::Scope hierarchy_span(Spans(), "core.hierarchy");
  core::HierarchySummaries hierarchy_summaries(hierarchy, summaries,
                                               classifications);
  split.hierarchy_s = hierarchy_span.End();

  const uint64_t em_before = HistogramSum("em.iterations");
  SpanLog::Scope em_span(Spans(), "core.em");
  core::ShrinkageModel model(&hierarchy_summaries, sample_sizes);
  split.em_s = em_span.End();
  split.em_iterations = HistogramSum("em.iterations") - em_before;

  SpanLog::Scope plain_span(Spans(), "selection.plain_stats");
  selection::ScoringStatisticsCache plain;
  if (prior != nullptr) {
    std::vector<const summary::SummaryView*> prior_views;
    for (size_t i = 0; i < n; ++i) {
      prior_views.push_back(&prior->plain_summary(i));
    }
    plain = selection::ScoringStatisticsCache::Rebuilt(
        prior->plain_statistics(), plain_views, prior_views, changed);
  } else {
    plain = selection::ScoringStatisticsCache(plain_views);
  }
  split.plain_stats_s = plain_span.End();

  std::vector<const summary::SummaryView*> shrunk_views;
  for (size_t i = 0; i < n; ++i) shrunk_views.push_back(&model.shrunk(i));
  SpanLog::Scope shrunk_span(Spans(), "selection.shrunk_stats");
  const selection::ScoringStatisticsCache shrunk(shrunk_views);
  split.shrunk_stats_s = shrunk_span.End();
  split.vocabulary = shrunk.vocabulary_size();
  return split;
}

void AddBuildSplitMetrics(Report& report, const BuildSplit& split,
                          double build_s) {
  report.AddScaled("core.hierarchy_s", split.hierarchy_s, "s");
  report.AddScaled("core.em_s", split.em_s, "s");
  report.AddCount("core.em_iterations", split.em_iterations);
  report.AddScaled("selection.plain_stats_s", split.plain_stats_s, "s");
  report.AddScaled("selection.shrunk_stats_s", split.shrunk_stats_s, "s");
  report.AddCount("selection.vocabulary", split.vocabulary, "words");
  report.AddScaled("core.build_other_s",
                   build_s - (split.hierarchy_s + split.em_s +
                              split.plain_stats_s + split.shrunk_stats_s),
                   "s");
}

void QueryLayers::MinWith(const QueryLayers& o) {
  select = std::min(select, o.select);
  fill = std::min(fill, o.fill);
  lookup = std::min(lookup, o.lookup);
  eval = std::min(eval, o.eval);
  score = std::min(score, o.score);
  rank = std::min(rank, o.rank);
}

QueryLayers& QueryLayers::operator+=(const QueryLayers& o) {
  select += o.select;
  fill += o.fill;
  lookup += o.lookup;
  eval += o.eval;
  score += o.score;
  rank += o.rank;
  return *this;
}

QueryReplayer::QueryReplayer(const core::Metasearcher* meta,
                             core::SummaryMode mode, util::ThreadPool* pool)
    : meta_(meta),
      mode_(mode),
      pool_(pool),
      selector_(adaptive_options_),
      cache_(meta->num_databases()) {
  // Pinned like the Metasearcher pins its own cache at construction.
  for (size_t i = 0; i < meta_->num_databases(); ++i) {
    if (meta_->degraded(i)) continue;
    const sampling::SampleResult& s = meta_->sample(i);
    cache_.PinParams(i, s.sample_size, std::max(1.0, s.estimated_db_size),
                     core::PowerLawGamma(s.mandelbrot_alpha),
                     adaptive_options_.grid_points, meta_->summary_epoch(i));
  }
}

QueryLayers QueryReplayer::Replay(const selection::Query& query,
                                  const selection::ScoringFunction& scorer,
                                  uint64_t id, bool* ranking_matches) {
  const size_t n = meta_->num_databases();
  QueryLayers t;
  SpanLog::Scope query_span(Spans(), "replay.query", id);

  SpanLog::Scope select_span(Spans(), "core.select_databases", id);
  const core::Metasearcher::SelectionOutcome program =
      meta_->SelectDatabases(query, scorer, mode_);
  t.select = select_span.End();

  selection::ScoringContext decision;
  for (size_t i = 0; i < n; ++i) {
    decision.ranked_summaries.push_back(&meta_->plain_summary(i));
  }
  decision.global_summary = &meta_->global_summary();
  SpanLog::Scope fill_span(Spans(), "selection.stats_fill", id);
  meta_->plain_statistics().FillContext(query, decision);
  t.fill = fill_span.End();

  // Lookups for the pairs that pass Evaluate's gates, one per distinct
  // term, exactly as Evaluate issues them.
  std::vector<std::string> distinct;
  for (const std::string& w : query.terms) {
    if (std::find(distinct.begin(), distinct.end(), w) == distinct.end()) {
      distinct.push_back(w);
    }
  }
  SpanLog::Scope lookup_span(Spans(), "core.posterior_lookup", id);
  for (size_t i = 0; i < n; ++i) {
    if (meta_->degraded(i)) continue;
    const sampling::SampleResult& s = meta_->sample(i);
    const double db_size = std::max(1.0, s.estimated_db_size);
    if (static_cast<double>(s.sample_size) >= 0.9 * db_size) continue;
    if (query.terms.empty()) continue;
    const auto sample_df = [&](const std::string& w) -> size_t {
      auto it = s.sample_df.find(w);
      return it != s.sample_df.end() ? it->second : 0;
    };
    if (adaptive_options_.require_mixed_evidence && query.terms.size() > 1) {
      bool any_present = false;
      bool any_absent = false;
      for (const std::string& w : query.terms) {
        const size_t sk = sample_df(w);
        if (sk >= adaptive_options_.present_min_df) any_present = true;
        if (sk == 0) any_absent = true;
      }
      if (!any_present || !any_absent) continue;
    }
    const double gamma = core::PowerLawGamma(s.mandelbrot_alpha);
    for (const std::string& w : distinct) {
      const auto posterior =
          cache_.Get(i, sample_df(w), s.sample_size, db_size, gamma,
                     adaptive_options_.grid_points, meta_->summary_epoch(i));
      if (posterior == nullptr) Fail("posterior lookup returned null");
    }
  }
  t.lookup = lookup_span.End();

  std::vector<const summary::SummaryView*> chosen(n);
  {
    // The program forks one stream per database from its adaptive seed.
    util::Rng rng(core::MetasearcherOptions().adaptive_seed);
    std::vector<util::Rng> db_rngs;
    for (size_t i = 0; i < n; ++i) db_rngs.push_back(rng.Fork());
    SpanLog::Scope eval_span(Spans(), "core.adaptive_evaluate", id);
    for (size_t i = 0; i < n; ++i) {
      chosen[i] = &meta_->plain_summary(i);
      if (meta_->degraded(i)) continue;
      const core::AdaptiveSummarySelector::Uncertainty u =
          selector_.Evaluate(query, meta_->sample(i), scorer, decision,
                             db_rngs[i], &cache_, i, meta_->summary_epoch(i));
      if (mode_ == core::SummaryMode::kAdaptiveShrinkage && u.use_shrinkage) {
        chosen[i] = &meta_->shrunk_summary(i);
      }
    }
    t.eval = eval_span.End();
  }
  selection::ScoringContext context;
  context.ranked_summaries = chosen;
  context.global_summary = &meta_->global_summary();
  selection::PrepareContextForQuery(query, context);
  double scores = 0.0;
  SpanLog::Scope score_span(Spans(), "selection.score", id);
  for (size_t i = 0; i < n; ++i) {
    scores += scorer.Score(query, *chosen[i], context);
  }
  t.score = score_span.End();
  score_sink_ = scores;
  SpanLog::Scope rank_span(Spans(), "selection.rank", id);
  const std::vector<selection::RankedDatabase> ranking =
      selection::RankDatabases(query, chosen, scorer, context, pool_);
  t.rank = rank_span.End();
  if (ranking_matches != nullptr) {
    *ranking_matches = HashRanking(ranking) == HashRanking(program.ranking);
  }
  return t;
}

void AddQueryLayerMetrics(
    Report& report, QueryReplayer& replayer,
    const std::vector<selection::Query>& queries,
    const std::vector<const selection::ScoringFunction*>& scorers,
    size_t passes, bool adaptive_program) {
  const bool recording = Spans().enabled();
  Spans().set_enabled(false);
  for (size_t q = 0; q < queries.size(); ++q) {
    (void)replayer.Replay(queries[q], *scorers[q % scorers.size()], q,
                          nullptr);
  }
  Spans().set_enabled(recording);
  std::vector<QueryLayers> best(queries.size());
  size_t mismatches = 0;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t q = 0; q < queries.size(); ++q) {
      bool matches = true;
      const QueryLayers t = replayer.Replay(
          queries[q], *scorers[q % scorers.size()], q, &matches);
      if (pass == 0) {
        best[q] = t;
        if (!matches) ++mismatches;
      } else {
        best[q].MinWith(t);
      }
    }
  }
  QueryLayers total;
  for (const QueryLayers& b : best) total += b;
  const double per_query_us = 1e6 / static_cast<double>(queries.size());
  const size_t samples = queries.size();
  // The program fills statistics once for plain selection and twice for
  // adaptive selection (decision context, then the chosen summaries).
  const double fills = adaptive_program ? 2.0 : 1.0;
  const double program_eval = adaptive_program ? total.eval : 0.0;
  report.AddScaled("selection.stats_fill_us", total.fill * per_query_us, "us",
                   samples);
  report.AddScaled("core.posterior_lookup_us", total.lookup * per_query_us,
                   "us", samples);
  report.AddScaled("core.uncertainty_us",
                   (total.eval - total.lookup) * per_query_us, "us", samples);
  report.AddScaled("selection.score_us", total.score * per_query_us, "us",
                   samples);
  report.AddScaled("selection.rank_us",
                   (total.rank - total.score) * per_query_us, "us", samples);
  report.AddScaled(
      "core.select_other_us",
      (total.select - (fills * total.fill + program_eval + total.rank)) *
          per_query_us,
      "us", samples);
  report.AddCount("replay.ranking_mismatches", mismatches, "queries");
}

ClosedLoop::ClosedLoop(size_t queries, bool traced_run)
    : best_s(queries, 1e300),
      traced_best_s(traced_run ? queries : 0, 1e300),
      traced(traced_run) {}

void RunClosedLoopWindow(
    const core::Metasearcher& meta,
    const std::vector<selection::Query>& queries,
    const std::vector<const selection::ScoringFunction*>& scorers,
    core::SummaryMode mode, std::vector<uint64_t>& expected, double until_s,
    bool last, ClosedLoop& loop) {
  const bool recording = Spans().enabled();
  const auto more = [&]() {
    if (loop.serving_s < until_s) return true;
    if (!last) return false;
    return loop.untraced_passes < 2 ||
           (loop.traced && loop.passes == loop.untraced_passes);
  };
  while (more()) {
    const bool traced = loop.traced && loop.passes % 2 == 1;
    Spans().set_enabled(traced);
    std::vector<double>& best = traced ? loop.traced_best_s : loop.best_s;
    Gauge().Sample();
    const uint64_t pass_start = NowNs();
    for (size_t q = 0; q < queries.size(); ++q) {
      SpanLog::Scope span(Spans(), "core.select_databases", q);
      const core::Metasearcher::SelectionOutcome outcome =
          meta.SelectDatabases(queries[q], *scorers[q % scorers.size()], mode);
      best[q] = std::min(best[q], span.End());
      ++loop.attempted;
      if (!outcome.status.ok()) {
        ++loop.failed;
        continue;
      }
      const uint64_t hash = HashRanking(outcome.ranking);
      if (expected.size() == q) expected.push_back(hash);
      if (hash != expected[q]) {
        Fail("query %zu ranked differently in serving pass %zu than in the "
             "warm-up pass",
             q, loop.passes);
      }
    }
    loop.serving_s += Seconds(NowNs() - pass_start);
    if (!traced) ++loop.untraced_passes;
    ++loop.passes;
  }
  Spans().set_enabled(recording);
}

void AddServingMetrics(Report& report, const ClosedLoop& loop, bool goodput) {
  double total = 0.0;
  std::vector<double> ms;
  for (double s : loop.best_s) {
    total += s;
    ms.push_back(s * 1e3);
  }
  const size_t n = loop.best_s.size();
  const double qps = static_cast<double>(n) / total;
  report.AddScaled("throughput_qps", qps, "1/s", n);
  report.AddScaled("latency_p50_ms", Percentile(ms, 50.0), "ms", n);
  report.AddScaled("latency_p99_ms", Percentile(ms, 99.0), "ms", n);
  if (goodput) {
    const double ok_share = 1.0 - static_cast<double>(loop.failed) /
                                      static_cast<double>(loop.attempted);
    report.AddScaled("goodput_qps", qps * ok_share, "1/s", n);
  }
}

void AddTraceOverhead(Report& report, const ClosedLoop& loop) {
  double untraced = 0.0;
  double traced = 0.0;
  for (double s : loop.best_s) untraced += s;
  for (double s : loop.traced_best_s) traced += s;
  const double n = static_cast<double>(loop.best_s.size());
  report.Add("trace.overhead_share", traced / untraced - 1.0, "ratio",
             loop.best_s.size());
  report.AddScaled("trace.overhead_us", (traced - untraced) * 1e6 / n, "us",
                   loop.best_s.size());
}

double RunBrokerSlice(broker::QueryBroker& broker,
                      broker::OpenLoopGenerator& generator,
                      const std::vector<selection::Query>& queries,
                      size_t requests, uint64_t slice_id,
                      double* submit_seconds) {
  std::vector<broker::Arrival> arrivals;
  arrivals.reserve(requests);
  for (size_t i = 0; i < requests; ++i) arrivals.push_back(generator.Next());
  SpanLog::Scope slice(Spans(), "broker.slice", slice_id);
  for (const broker::Arrival& a : arrivals) {
    SpanLog::Scope submit(Spans(), "broker.submit", slice_id);
    (void)broker.Submit(queries[a.query_index], a.arrival_ms,
                        a.service_inflation);
    if (submit_seconds != nullptr) *submit_seconds += submit.End();
  }
  {
    SpanLog::Scope drain(Spans(), "broker.drain", slice_id);
    broker.Drain();
  }
  return slice.End();
}

broker::BrokerOptions PinnedBrokerOptions() {
  broker::BrokerOptions options;
  options.num_workers = 2;
  options.deadline_ms = 100.0;
  options.costs = util::Deadline::Costs();
  options.max_batch = 8;
  return options;
}

double PinnedArrivalQps(size_t databases, core::SummaryMode full_mode,
                        double load) {
  const broker::BrokerOptions options = PinnedBrokerOptions();
  double per_db_ms = options.costs.score_ms;
  if (full_mode == core::SummaryMode::kAdaptiveShrinkage) {
    per_db_ms += options.costs.adaptive_evaluation_ms;
  }
  const double request_ms = static_cast<double>(databases) * per_db_ms;
  return load * static_cast<double>(options.num_workers) * 1000.0 /
         request_ms;
}

void AddBrokerMetrics(Report& report, const broker::BrokerStats& stats,
                      const std::vector<broker::RequestResult>& results,
                      uint64_t batches, double submit_seconds) {
  std::vector<double> waits;
  for (const broker::RequestResult& r : results) {
    if (r.admitted()) waits.push_back(r.queue_wait_ms);
  }
  report.AddScaled("broker.submit_us",
                   stats.submitted > 0
                       ? submit_seconds * 1e6 /
                             static_cast<double>(stats.submitted)
                       : 0.0,
                   "us", stats.submitted);
  report.AddCount("broker.batches", batches);
  report.AddCount("broker.served_full", stats.served_full, "requests");
  report.AddCount("broker.served_degraded", stats.served_degraded, "requests");
  report.AddCount("broker.shed", stats.shed(), "requests");
  report.AddCount("broker.expired", stats.expired(), "requests");
  report.Add("broker.queue_wait_virtual_ms_p95", Percentile(waits, 95.0), "ms",
             waits.size());
}

}  // namespace perfbench

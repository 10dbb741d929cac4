#include "fedsearch/selection/scoring.h"

#include "fedsearch/util/check.h"
#include "fedsearch/util/metrics.h"
#include "fedsearch/util/small_buffer.h"

namespace fedsearch::selection {

double ScoringFunction::Score(const Query& query,
                              const summary::SummaryView& db,
                              const ScoringContext& context) const {
  util::SmallBuffer<summary::WordStats, 16> buffer(query.terms.size());
  const std::span<summary::WordStats> stats = buffer.span();
  for (size_t i = 0; i < stats.size(); ++i) {
    stats[i] = db.Stats(query.terms[i]);
  }
  return ScoreFromStats(query, db, stats, context);
}

double ScoringFunction::FinalizeScore(const Query&, double combined) const {
  return combined;
}

namespace {

// Mean total_tokens() over `summaries`, summed in index order: the one
// reduction every mean cw in this file goes through, so means over the
// same set agree bit for bit. 1.0 for an empty set or a non-positive sum.
double MeanCollectionWords(
    const std::vector<const summary::SummaryView*>& summaries) {
  if (summaries.empty()) return 1.0;
  double total_cw = 0.0;
  for (const summary::SummaryView* s : summaries) {
    total_cw += s->total_tokens();
  }
  double mean = total_cw / static_cast<double>(summaries.size());
  if (mean <= 0.0) mean = 1.0;
  return mean;
}

// The position of the first occurrence of query.terms[i]: a repeated
// term copies the entry its first occurrence computed.
size_t FirstOccurrence(const Query& query, size_t i) {
  size_t j = 0;
  while (query.terms[j] != query.terms[i]) ++j;
  return j;
}

}  // namespace

void PrepareContextForQuery(const Query& query, ScoringContext& context) {
  ScoringStatisticsCache().FillContext(query, context);
}

void FillGlobalProbabilities(const Query& query, ScoringContext& context) {
  const size_t terms = query.terms.size();
  context.term_global_prob.resize(terms);
  for (size_t i = 0; i < terms; ++i) {
    const size_t first = FirstOccurrence(query, i);
    if (first < i) {
      context.term_global_prob[i] = context.term_global_prob[first];
    } else {
      context.term_global_prob[i] =
          context.global_summary != nullptr
              ? context.global_summary->ProbToken(query.terms[i])
              : 0.0;
    }
  }
}

void CheckPreparedFor(std::string_view scorer, const Query& query,
                      size_t prepared_terms) {
  FEDSEARCH_CHECK(prepared_terms >= query.terms.size())
      << " " << scorer << " scored a " << query.terms.size()
      << "-term query from a context prepared for " << prepared_terms
      << " terms";
}

ScoringStatisticsCache::ScoringStatisticsCache(
    const std::vector<const summary::SummaryView*>& summaries)
    : mean_cw_(MeanCollectionWords(summaries)), summaries_(summaries) {
  for (const summary::SummaryView* s : summaries) {
    // ContainsRounded (not the raw enumerated df) so trimming semantics —
    // CORI's cf(w) fix for shrunk summaries — match query-time checks.
    s->ForEachWord([&](const std::string& word, const summary::WordStats&) {
      if (s->ContainsRounded(word)) ++cf_[word];
    });
  }
}

ScoringStatisticsCache ScoringStatisticsCache::Rebuilt(
    const ScoringStatisticsCache& prior,
    const std::vector<const summary::SummaryView*>& summaries,
    const std::vector<const summary::SummaryView*>& prior_summaries,
    const std::vector<size_t>& changed) {
  FEDSEARCH_CHECK(summaries.size() == prior_summaries.size())
      << " summary sets differ in size: " << summaries.size() << " vs "
      << prior_summaries.size();
  FEDSEARCH_CHECK(prior.summaries_.size() == prior_summaries.size())
      << " prior cache covers " << prior.summaries_.size()
      << " summaries, not " << prior_summaries.size();
  ScoringStatisticsCache next;
  next.summaries_ = summaries;
  next.cf_ = prior.cf_;
  for (size_t i : changed) {
    FEDSEARCH_CHECK(i < summaries.size())
        << " changed index " << i << " of " << summaries.size();
    // Retract the old summary's contributions, then add the new one's.
    // Integer counts, so the result is order-independent and exactly what
    // a fresh scan over `summaries` would produce; entries reaching 0 are
    // erased so the maps (and vocabulary_size()) match the scan exactly.
    const summary::SummaryView* old_s = prior_summaries[i];
    old_s->ForEachWord(
        [&](const std::string& word, const summary::WordStats&) {
          if (!old_s->ContainsRounded(word)) return;
          auto it = next.cf_.find(word);
          FEDSEARCH_DCHECK(it != next.cf_.end() && it->second > 0)
              << " cf underflow for word retracted by database " << i;
          if (--it->second == 0) next.cf_.erase(it);
        });
    const summary::SummaryView* new_s = summaries[i];
    new_s->ForEachWord(
        [&](const std::string& word, const summary::WordStats&) {
          if (new_s->ContainsRounded(word)) ++next.cf_[word];
        });
  }
  // A full recompute, NOT an incremental ± of the changed databases'
  // totals: only the scanning constructor's reduction order reproduces
  // its bits.
  next.mean_cw_ = MeanCollectionWords(summaries);
  return next;
}

size_t ScoringStatisticsCache::CollectionFrequency(
    const std::string& word) const {
  static util::Counter& global_hits =
      util::GlobalMetrics().counter("scoring_stats_cache.hits");
  static util::Counter& global_misses =
      util::GlobalMetrics().counter("scoring_stats_cache.misses");
  auto it = cf_.find(word);
  if (it != cf_.end()) {
    global_hits.Add();
    return it->second;
  }
  global_misses.Add();
  return 0;
}

void ScoringStatisticsCache::FillContext(
    const Query& query, ScoringContext& context,
    const util::TraceContext& trace) const {
  FillCorpusStatistics(query, context, trace);
  FillGlobalProbabilities(query, context);
}

void ScoringStatisticsCache::FillCorpusStatistics(
    const Query& query, ScoringContext& context,
    const util::TraceContext& trace) const {
  static util::Counter& global_fills =
      util::GlobalMetrics().counter("scoring_stats_cache.fills");
  util::Tracer::Scope fill_span("statistics_cache_fill", trace);
  fill_span.AttrUint("terms", query.terms.size());
  global_fills.Add();
  const std::vector<const summary::SummaryView*>& ranked =
      context.ranked_summaries;
  const bool empty = summaries_.empty();
  FEDSEARCH_CHECK(empty || summaries_.size() == ranked.size())
      << " statistics cover " << summaries_.size()
      << " summaries, the context ranks " << ranked.size();

  // Positions whose ranked summary is not the one this cache counted.
  std::vector<size_t> differs;
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (empty || ranked[i] != summaries_[i]) differs.push_back(i);
  }
  context.mean_cw = differs.empty() ? mean_cw_ : MeanCollectionWords(ranked);
  const size_t terms = query.terms.size();
  context.term_cf.resize(terms);
  for (size_t t = 0; t < terms; ++t) {
    const size_t first = FirstOccurrence(query, t);
    if (first < t) {
      context.term_cf[t] = context.term_cf[first];
      continue;
    }
    const std::string& w = query.terms[t];
    long long cf = static_cast<long long>(CollectionFrequency(w));
    for (size_t i : differs) {
      if (ranked[i]->ContainsRounded(w)) ++cf;
      if (!empty && summaries_[i]->ContainsRounded(w)) --cf;
    }
    context.term_cf[t] = cf > 0 ? static_cast<size_t>(cf) : 0;
  }
}

}  // namespace fedsearch::selection

#include "fedsearch/selection/cori.h"

#include <cmath>

#include "fedsearch/util/check.h"

namespace fedsearch::selection {
namespace {

constexpr double kBeliefFloor = 0.4;

// The corpus statistics come from the context's fill
// (ScoringStatisticsCache::FillContext); CORI never counts them itself.
size_t CollectionFrequency(const std::string& word,
                           const ScoringContext& context) {
  auto it = context.cached_cf.find(word);
  FEDSEARCH_CHECK(it != context.cached_cf.end())
      << " CORI scored term \"" << word
      << "\" from a context not filled for it";
  return it->second;
}

// Belief of one term given a raw document frequency `df_raw` out of
// `num_docs` documents. Replicates SummaryView::ProbDoc / ContainsRounded
// arithmetic exactly (p = min(1, df/n) clamped at n <= 0, presence =
// round(n·p) >= 1) so the value is bit-identical whether the df comes from
// the summary itself or from a posterior grid point.
double TermBelief(const std::string& word, double df_raw, double num_docs,
                  double cw, double mcw, double m,
                  const ScoringContext& context) {
  double belief = kBeliefFloor;
  const double p =
      num_docs <= 0.0 ? 0.0 : std::min(1.0, df_raw / num_docs);
  if (std::lround(num_docs * p) >= 1) {
    const double df = p * num_docs;
    const double t = df / (df + 50.0 + 150.0 * cw / mcw);
    const size_t cf = std::max<size_t>(1, CollectionFrequency(word, context));
    const double i =
        std::log((m + 0.5) / static_cast<double>(cf)) / std::log(m + 1.0);
    belief += 0.6 * t * i;
  }
  return belief;
}

double RankedCount(const ScoringContext& context) {
  return static_cast<double>(
      std::max<size_t>(1, context.ranked_summaries.size()));
}

}  // namespace

double CoriScorer::Score(const Query& query, const summary::SummaryView& db,
                         const ScoringContext& context) const {
  if (query.terms.empty()) return kBeliefFloor;
  // Same arithmetic as the delta-protocol fold (CombineInit = 0, one
  // TermBelief per term, FinalizeScore divide) with the per-database
  // invariants hoisted and no virtual dispatch; bit-identity to the fold
  // is pinned by tests/selection/scorers_test.cc.
  const double num_docs = db.num_documents();
  const double cw = db.total_tokens();
  const double mcw = context.cached_mean_cw;
  const double m = RankedCount(context);
  double combined = 0.0;
  for (const std::string& w : query.terms) {
    combined += TermBelief(w, db.DocFrequency(w), num_docs, cw, mcw, m,
                           context);
  }
  return combined / static_cast<double>(query.terms.size());
}

double CoriScorer::DefaultScore(const Query&, const summary::SummaryView&,
                                const ScoringContext&) const {
  return kBeliefFloor;
}

double CoriScorer::CombineInit(const Query&, const summary::SummaryView&,
                               const ScoringContext&) const {
  return 0.0;
}

double CoriScorer::TermContribution(const Query& query, size_t term_index,
                                    const summary::SummaryView& db,
                                    const ScoringContext& context) const {
  const std::string& w = query.terms[term_index];
  return TermBelief(w, db.DocFrequency(w), db.num_documents(),
                    db.total_tokens(), context.cached_mean_cw,
                    RankedCount(context), context);
}

double CoriScorer::TermContributionWithDf(const Query& query,
                                          size_t term_index,
                                          double df_override,
                                          const summary::SummaryView& db,
                                          const ScoringContext& context) const {
  return TermBelief(query.terms[term_index], df_override, db.num_documents(),
                    db.total_tokens(), context.cached_mean_cw,
                    RankedCount(context), context);
}

void CoriScorer::TermContributionTable(const Query& query, size_t term_index,
                                       const summary::SummaryView& db,
                                       const ScoringContext& context,
                                       const double* dfs, size_t count,
                                       double* out) const {
  const std::string& w = query.terms[term_index];
  const double num_docs = db.num_documents();
  const double cw = db.total_tokens();
  const double mcw = context.cached_mean_cw;
  const double m = RankedCount(context);
  // The term-invariant pieces of TermBelief, hoisted out of the per-point
  // body. Each hoisted value is a self-contained sub-expression of
  // TermBelief (same association), so out[g] stays bit-identical to the
  // per-point TermContributionWithDf call.
  const double cw_term = 150.0 * cw / mcw;
  const size_t cf = std::max<size_t>(1, CollectionFrequency(w, context));
  const double i =
      std::log((m + 0.5) / static_cast<double>(cf)) / std::log(m + 1.0);
  for (size_t g = 0; g < count; ++g) {
    double belief = kBeliefFloor;
    const double p =
        num_docs <= 0.0 ? 0.0 : std::min(1.0, dfs[g] / num_docs);
    if (std::lround(num_docs * p) >= 1) {
      const double df = p * num_docs;
      const double t = df / (df + 50.0 + cw_term);
      belief += 0.6 * t * i;
    }
    out[g] = belief;
  }
}

double CoriScorer::FinalizeScore(const Query& query, double combined) const {
  if (query.terms.empty()) return kBeliefFloor;
  return combined / static_cast<double>(query.terms.size());
}

}  // namespace fedsearch::selection

#include "fedsearch/selection/cori.h"

#include <algorithm>
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

// I = log((m + 0.5)/cf(w)) / log(m + 1.0): two logs and a cf lookup.
double InverseFrequency(const std::string& word,
                        const ScoringContext& context) {
  const double m = static_cast<double>(
      std::max<size_t>(1, context.ranked_summaries.size()));
  const size_t cf = std::max<size_t>(1, CollectionFrequency(word, context));
  return std::log((m + 0.5) / static_cast<double>(cf)) / std::log(m + 1.0);
}

// 150 · cw(D)/mcw, the database's share of T's denominator.
double CollectionWordsTerm(const summary::SummaryView& db,
                           const ScoringContext& context) {
  return 150.0 * db.total_tokens() / context.cached_mean_cw;
}

// The per-df kernel: belief of one term whose raw document frequency is
// `df_raw` out of `num_docs` documents. `idf()` yields I; it runs only
// when the word counts as present, so Score pays its logs and cf lookup
// for present words alone. Replicates SummaryView::ProbDoc /
// ContainsRounded arithmetic exactly (p = min(1, df/n) clamped at n <= 0,
// presence = round(n·p) >= 1), so a grid point scores exactly as a summary
// holding that df would.
template <typename Idf>
double Belief(double df_raw, double num_docs, double cw_term, Idf idf) {
  double belief = kBeliefFloor;
  const double p = num_docs <= 0.0 ? 0.0 : std::min(1.0, df_raw / num_docs);
  if (std::lround(num_docs * p) >= 1) {
    const double df = p * num_docs;
    const double t = df / (df + 50.0 + cw_term);
    belief += 0.6 * t * idf();
  }
  return belief;
}

}  // namespace

double CoriScorer::Score(const Query& query, const summary::SummaryView& db,
                         const ScoringContext& context) const {
  // The per-term fold (seed 0, divided by |q|) over the summary's own dfs.
  if (query.terms.empty()) return kBeliefFloor;
  const double num_docs = db.num_documents();
  const double cw_term = CollectionWordsTerm(db, context);
  double combined = 0.0;
  for (const std::string& w : query.terms) {
    combined += Belief(db.DocFrequency(w), num_docs, cw_term,
                       [&] { return InverseFrequency(w, context); });
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

void CoriScorer::TermContributionTable(const Query& query, size_t term_index,
                                       const summary::SummaryView& db,
                                       const ScoringContext& context,
                                       const double* dfs, size_t count,
                                       double* out) const {
  const double num_docs = db.num_documents();
  const double cw_term = CollectionWordsTerm(db, context);
  const double idf = InverseFrequency(query.terms[term_index], context);
  for (size_t g = 0; g < count; ++g) {
    out[g] = Belief(dfs[g], num_docs, cw_term, [idf] { return idf; });
  }
}

double CoriScorer::FinalizeScore(const Query& query, double combined) const {
  if (query.terms.empty()) return kBeliefFloor;
  return combined / static_cast<double>(query.terms.size());
}

}  // namespace fedsearch::selection

#include "fedsearch/selection/lm.h"

#include <algorithm>

namespace fedsearch::selection {
namespace {

// (1 − λ)·p̂(w|G) for the term at query position `term_index`: the
// global-smoothing part of a term's factor, and all of it that survives
// in a database without the word.
double Smoothing(size_t term_index, double lambda,
                 const ScoringContext& context) {
  return (1.0 - lambda) * context.term_global_prob[term_index];
}

// The per-df kernel, taking the token frequency its df implies:
// λ·p̂(w|D) + (1 − λ)·p̂(w|G) from a raw token frequency, replicating
// SummaryView::ProbToken arithmetic exactly (min(1, tf/total) clamped at
// total <= 0), so a grid point scores exactly as a summary holding that
// frequency would.
double Factor(double tf_raw, double total_tokens, double lambda,
              double smoothing) {
  const double p =
      total_tokens <= 0.0 ? 0.0 : std::min(1.0, tf_raw / total_tokens);
  return lambda * p + smoothing;
}

}  // namespace

void LmScorer::PrepareContext(const Query& query,
                              const ScoringStatisticsCache&,
                              ScoringContext& context,
                              const util::TraceContext&) const {
  FillGlobalProbabilities(query, context);
}

double LmScorer::Score(const Query& query, const summary::SummaryView& db,
                       const ScoringContext& context) const {
  // The per-term fold (seed 1, identity finalization) over the summary's
  // own token frequencies.
  CheckPreparedFor(name(), query, context.term_global_prob.size());
  const double total = db.total_tokens();
  double score = 1.0;
  for (size_t i = 0; i < query.terms.size(); ++i) {
    score *= Factor(db.TokenFrequency(query.terms[i]), total, lambda_,
                    Smoothing(i, lambda_, context));
  }
  return score;
}

double LmScorer::DefaultScore(const Query& query, const summary::SummaryView&,
                              const ScoringContext& context) const {
  // What the database would score if it contained none of the query words:
  // only the global smoothing component survives.
  CheckPreparedFor(name(), query, context.term_global_prob.size());
  double score = 1.0;
  for (size_t i = 0; i < query.terms.size(); ++i) {
    score *= Smoothing(i, lambda_, context);
  }
  return score;
}

double LmScorer::CombineInit(const Query&, const summary::SummaryView&,
                             const ScoringContext&) const {
  return 1.0;
}

void LmScorer::TermContributionTable(const Query& query, size_t term_index,
                                     const summary::SummaryView& db,
                                     const ScoringContext& context,
                                     const double* dfs, size_t count,
                                     double* out) const {
  CheckPreparedFor(name(), query, context.term_global_prob.size());
  const std::string& w = query.terms[term_index];
  const double total = db.total_tokens();
  const double base_df = db.DocFrequency(w);
  const double base_tf = db.TokenFrequency(w);
  const double smoothing = Smoothing(term_index, lambda_, context);
  for (size_t g = 0; g < count; ++g) {
    // Token frequency at the grid df: a word seen in the sample keeps its
    // average per-document count, an unseen word gets one occurrence per
    // containing document.
    const double tf = base_df > 0.0 ? dfs[g] * base_tf / base_df : dfs[g];
    out[g] = Factor(tf, total, lambda_, smoothing);
  }
}

}  // namespace fedsearch::selection

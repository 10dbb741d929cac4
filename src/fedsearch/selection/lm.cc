#include "fedsearch/selection/lm.h"

#include <algorithm>

namespace fedsearch::selection {
namespace {

// (1 − λ)·p̂(w|G): the global-smoothing part of a term's factor, and all
// of it that survives in a database without the word.
double Smoothing(const std::string& word, double lambda,
                 const ScoringContext& context) {
  const double global = context.global_summary != nullptr
                            ? context.global_summary->ProbToken(word)
                            : 0.0;
  return (1.0 - lambda) * global;
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

double LmScorer::Score(const Query& query, const summary::SummaryView& db,
                       const ScoringContext& context) const {
  // The per-term fold (seed 1, identity finalization) over the summary's
  // own token frequencies.
  const double total = db.total_tokens();
  double score = 1.0;
  for (const std::string& w : query.terms) {
    score *= Factor(db.TokenFrequency(w), total, lambda_,
                    Smoothing(w, lambda_, context));
  }
  return score;
}

double LmScorer::DefaultScore(const Query& query, const summary::SummaryView&,
                              const ScoringContext& context) const {
  // What the database would score if it contained none of the query words:
  // only the global smoothing component survives.
  double score = 1.0;
  for (const std::string& w : query.terms) {
    score *= Smoothing(w, lambda_, context);
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
  const std::string& w = query.terms[term_index];
  const double total = db.total_tokens();
  const double base_df = db.DocFrequency(w);
  const double base_tf = db.TokenFrequency(w);
  const double smoothing = Smoothing(w, lambda_, context);
  for (size_t g = 0; g < count; ++g) {
    // Token frequency at the grid df: a word seen in the sample keeps its
    // average per-document count, an unseen word gets one occurrence per
    // containing document.
    const double tf = base_df > 0.0 ? dfs[g] * base_tf / base_df : dfs[g];
    out[g] = Factor(tf, total, lambda_, smoothing);
  }
}

}  // namespace fedsearch::selection

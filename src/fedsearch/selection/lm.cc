#include "fedsearch/selection/lm.h"

#include <algorithm>

namespace fedsearch::selection {
namespace {

// λ·p̂(w|D) + (1−λ)·p̂(w|G) from a raw token frequency, replicating
// SummaryView::ProbToken arithmetic exactly (min(1, tf/total) clamped at
// total <= 0) so the factor is bit-identical whether tf comes from the
// summary or is scaled from a posterior grid point's df.
double SmoothedFactor(const std::string& word, double tf_raw,
                      double total_tokens, double lambda,
                      const ScoringContext& context) {
  const double global = context.global_summary != nullptr
                            ? context.global_summary->ProbToken(word)
                            : 0.0;
  const double p =
      total_tokens <= 0.0 ? 0.0 : std::min(1.0, tf_raw / total_tokens);
  return lambda * p + (1.0 - lambda) * global;
}

}  // namespace

double LmScorer::Score(const Query& query, const summary::SummaryView& db,
                       const ScoringContext& context) const {
  // Same arithmetic as the delta-protocol fold (CombineInit = 1, one
  // SmoothedFactor per term) with total_tokens hoisted and no virtual
  // dispatch; bit-identity to the fold is pinned by
  // tests/selection/scorers_test.cc.
  const double total = db.total_tokens();
  double score = 1.0;
  for (const std::string& w : query.terms) {
    score *= SmoothedFactor(w, db.TokenFrequency(w), total, lambda_, context);
  }
  return score;
}

double LmScorer::DefaultScore(const Query& query, const summary::SummaryView&,
                              const ScoringContext& context) const {
  // What the database would score if it contained none of the query words:
  // only the global smoothing component survives.
  double score = 1.0;
  for (const std::string& w : query.terms) {
    const double global = context.global_summary != nullptr
                              ? context.global_summary->ProbToken(w)
                              : 0.0;
    score *= (1.0 - lambda_) * global;
  }
  return score;
}

double LmScorer::CombineInit(const Query&, const summary::SummaryView&,
                             const ScoringContext&) const {
  return 1.0;
}

double LmScorer::TermContribution(const Query& query, size_t term_index,
                                  const summary::SummaryView& db,
                                  const ScoringContext& context) const {
  const std::string& w = query.terms[term_index];
  return SmoothedFactor(w, db.TokenFrequency(w), db.total_tokens(), lambda_,
                        context);
}

double LmScorer::TermContributionWithDf(const Query& query, size_t term_index,
                                        double df_override,
                                        const summary::SummaryView& db,
                                        const ScoringContext& context) const {
  const std::string& w = query.terms[term_index];
  // Token frequency under the df override, with core::OverrideSummary's
  // scaling rule (same expression, same association): keep the average
  // per-document term count when the word was seen in the sample, else
  // assume one occurrence per containing document.
  const double base_df = db.DocFrequency(w);
  const double tf = base_df > 0.0
                        ? df_override * db.TokenFrequency(w) / base_df
                        : df_override;
  return SmoothedFactor(w, tf, db.total_tokens(), lambda_, context);
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
  // Term-invariant pieces of SmoothedFactor, hoisted: (1−λ)·global is a
  // self-contained sub-expression, so out[g] stays bit-identical to the
  // per-point TermContributionWithDf call.
  const double global = context.global_summary != nullptr
                            ? context.global_summary->ProbToken(w)
                            : 0.0;
  const double smoothing = (1.0 - lambda_) * global;
  for (size_t g = 0; g < count; ++g) {
    const double tf =
        base_df > 0.0 ? dfs[g] * base_tf / base_df : dfs[g];
    const double p = total <= 0.0 ? 0.0 : std::min(1.0, tf / total);
    out[g] = lambda_ * p + smoothing;
  }
}

}  // namespace fedsearch::selection

#include "fedsearch/selection/bgloss.h"

#include <algorithm>

namespace fedsearch::selection {
namespace {

// The per-df kernel: p̂(w|D) from a raw document frequency, replicating
// SummaryView::ProbDoc exactly (min(1, df/n) clamped at n <= 0).
double ProbDocFromDf(double df_raw, double num_docs) {
  if (num_docs <= 0.0) return 0.0;
  return std::min(1.0, df_raw / num_docs);
}

}  // namespace

double BglossScorer::Score(const Query& query, const summary::SummaryView& db,
                           const ScoringContext&) const {
  // The per-term fold (seed |D|, identity finalization) over the summary's
  // own dfs, plus the early return (see bgloss.h: the shortcut is
  // bit-equivalent to folding through).
  const double num_docs = db.num_documents();
  double score = num_docs;
  for (const std::string& w : query.terms) {
    score *= ProbDocFromDf(db.DocFrequency(w), num_docs);
    if (score == 0.0) return 0.0;
  }
  return score;
}

double BglossScorer::DefaultScore(const Query&, const summary::SummaryView&,
                                  const ScoringContext&) const {
  return 0.0;
}

double BglossScorer::CombineInit(const Query&, const summary::SummaryView& db,
                                 const ScoringContext&) const {
  return db.num_documents();
}

void BglossScorer::TermContributionTable(const Query&, size_t,
                                         const summary::SummaryView& db,
                                         const ScoringContext&,
                                         const double* dfs, size_t count,
                                         double* out) const {
  const double num_docs = db.num_documents();
  for (size_t g = 0; g < count; ++g) {
    out[g] = ProbDocFromDf(dfs[g], num_docs);
  }
}

}  // namespace fedsearch::selection

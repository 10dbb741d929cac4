#ifndef FEDSEARCH_SELECTION_BGLOSS_H_
#define FEDSEARCH_SELECTION_BGLOSS_H_

#include "fedsearch/selection/scoring.h"

namespace fedsearch::selection {

// bGlOSS (Gravano, García-Molina & Tomasic [13]):
//   s(q, D) = |D| · Π_{w ∈ q} p̂(w|D).
// A single missing query word zeroes the score; bGlOSS has no built-in
// smoothing, which is why universal shrinkage helps it (Section 6.2).
class BglossScorer : public ScoringFunction {
 public:
  std::string_view name() const override { return "bGlOSS"; }
  double ScoreFromStats(const Query& query, const summary::SummaryView& db,
                        std::span<const summary::WordStats> term_stats,
                        const ScoringContext& context) const override;
  double DefaultScore(const Query& query, const summary::SummaryView& db,
                      const ScoringContext& context) const override;

  // Per-term form: score = |D| · Π per-term p̂(w|D). (ScoreFromStats' early
  // return on a zero product is a shortcut, not a semantic difference:
  // every later factor is in [0, 1], so the full fold reproduces the same
  // 0.0 bit-for-bit.)
  TermCombine term_combine() const override { return TermCombine::kProduct; }
  double CombineInit(const Query& query, const summary::SummaryView& db,
                     const ScoringContext& context) const override;
  void TermContributionTable(const Query& query, size_t term_index,
                             const summary::SummaryView& db,
                             const summary::WordStats& term_stats,
                             const ScoringContext& context, const double* dfs,
                             size_t count, double* out) const override;
};

}  // namespace fedsearch::selection

#endif  // FEDSEARCH_SELECTION_BGLOSS_H_

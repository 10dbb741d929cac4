#ifndef FEDSEARCH_SELECTION_LM_H_
#define FEDSEARCH_SELECTION_LM_H_

#include "fedsearch/selection/scoring.h"

namespace fedsearch::selection {

// Language-model database selection (Si et al. [28]; equivalent to the
// KL-based method of Xu & Croft [31]):
//   s(q, D) = Π_{w ∈ q} (λ · p̂(w|D) + (1 − λ) · p̂(w|G))
// with token-frequency probabilities p(w|D) = tf(w,D)/Σ tf and G a global
// category (the Root summary here). λ = 0.5 as in [28] (Section 5.3).
class LmScorer : public ScoringFunction {
 public:
  explicit LmScorer(double lambda = 0.5) : lambda_(lambda) {}

  std::string_view name() const override { return "LM"; }
  // Fills only term_global_prob, the one statistic LM reads.
  void PrepareContext(const Query& query,
                      const ScoringStatisticsCache& statistics,
                      ScoringContext& context,
                      const util::TraceContext& trace = {}) const override;
  double ScoreFromStats(const Query& query, const summary::SummaryView& db,
                        std::span<const summary::WordStats> term_stats,
                        const ScoringContext& context) const override;
  double DefaultScore(const Query& query, const summary::SummaryView& db,
                      const ScoringContext& context) const override;

  // Per-term form: score = Π per-term smoothed probabilities.
  TermCombine term_combine() const override { return TermCombine::kProduct; }
  double CombineInit(const Query& query, const summary::SummaryView& db,
                     const ScoringContext& context) const override;
  void TermContributionTable(const Query& query, size_t term_index,
                             const summary::SummaryView& db,
                             const summary::WordStats& term_stats,
                             const ScoringContext& context, const double* dfs,
                             size_t count, double* out) const override;

 private:
  double lambda_;
};

}  // namespace fedsearch::selection

#endif  // FEDSEARCH_SELECTION_LM_H_

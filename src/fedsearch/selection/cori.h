#ifndef FEDSEARCH_SELECTION_CORI_H_
#define FEDSEARCH_SELECTION_CORI_H_

#include "fedsearch/selection/scoring.h"

namespace fedsearch::selection {

// CORI (French et al. [10]; Callan's inference-network ranking):
//   s(q, D) = Σ_{w ∈ q} (0.4 + 0.6 · T · I) / |q|
//   T = df / (df + 50 + 150 · cw(D)/mcw)
//   I = log((m + 0.5)/cf(w)) / log(m + 1.0)
// where df = p̂(w|D)·|D|, cf(w) is the number of ranked databases
// containing w, m the number of ranked databases, cw(D) the number of word
// occurrences in D and mcw its mean over the ranked databases.
//
// Following Section 5.3, a word counts as "present" in D — both for df and
// for cf(w) — only when round(|D|·p̂(w|D)) >= 1, which keeps shrunk
// summaries (where every word has non-zero probability) from collapsing
// cf(w) to m.
class CoriScorer : public ScoringFunction {
 public:
  std::string_view name() const override { return "CORI"; }
  double Score(const Query& query, const summary::SummaryView& db,
               const ScoringContext& context) const override;
  double DefaultScore(const Query& query, const summary::SummaryView& db,
                      const ScoringContext& context) const override;

  // Per-term form: score = (Σ per-term beliefs) / |q|.
  TermCombine term_combine() const override { return TermCombine::kSum; }
  double CombineInit(const Query& query, const summary::SummaryView& db,
                     const ScoringContext& context) const override;
  void TermContributionTable(const Query& query, size_t term_index,
                             const summary::SummaryView& db,
                             const ScoringContext& context, const double* dfs,
                             size_t count, double* out) const override;
  double FinalizeScore(const Query& query, double combined) const override;
};

}  // namespace fedsearch::selection

#endif  // FEDSEARCH_SELECTION_CORI_H_

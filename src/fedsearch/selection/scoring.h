#ifndef FEDSEARCH_SELECTION_SCORING_H_
#define FEDSEARCH_SELECTION_SCORING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fedsearch/summary/content_summary.h"
#include "fedsearch/util/trace.h"

namespace fedsearch::selection {

// A database selection query: a bag of analyzed terms.
struct Query {
  std::vector<std::string> terms;
};

// Corpus-wide inputs a scorer may need beyond the single database summary:
// CORI uses statistics over all databases being ranked (cf(w), mean cw);
// LM smoothes with a "global" category summary (Section 5.3).
struct ScoringContext {
  // All summaries participating in the ranking (indexed like the databases).
  // May be empty for scorers that do not need corpus statistics.
  std::vector<const summary::SummaryView*> ranked_summaries;

  // Summary of the "global" category G (the Root category summary in our
  // experiments); required by LM.
  const summary::SummaryView* global_summary = nullptr;

  // Corpus statistics over ranked_summaries for one query's terms, written
  // only by ScoringStatisticsCache::FillContext (PrepareContextForQuery is
  // a fill from an empty cache). Required by CORI: it aborts when asked
  // for the cf(w) of a term the context was not filled for.
  std::unordered_map<std::string, size_t> cached_cf;
  double cached_mean_cw = 0.0;
};

// Fills the context's statistics for the query's terms over
// context.ranked_summaries by direct count: FillContext from an empty
// cache, O(query terms × databases). Call once per (query, summary set).
void PrepareContextForQuery(const Query& query, ScoringContext& context);

// Corpus statistics of one summary set — cf(w) over the full vocabulary
// and the mean collection word count — and the one routine that turns
// them into a scoring context's statistics.
//
// cf(w) counts summaries with ContainsRounded(w), Section 5.3's trimming
// rule; it is an integer, so every way of counting it agrees exactly.
// mean cw sums total_tokens() in index order; float addition is not
// associative, so every mean in this class is that one reduction and
// agrees bit for bit with any other computed over the same set.
//
// The cache keeps pointers to the summaries it was built over, which must
// outlive it.
class ScoringStatisticsCache {
 public:
  // An empty cache: FillContext counts every ranked summary directly.
  ScoringStatisticsCache() = default;

  // Scans every summary's vocabulary once: O(databases × vocabulary).
  explicit ScoringStatisticsCache(
      const std::vector<const summary::SummaryView*>& summaries);

  // Incremental rebuild for live refresh: produces the cache the scanning
  // constructor would build over `summaries`, given `prior` built over
  // `prior_summaries` and the indices (`changed`, unique) where the two
  // summary vectors differ. cf(w) is updated by integer ±1 deltas for the
  // changed databases only — integer counts carry no accumulation-order
  // history, so the result is exactly the scanned map (entries reaching 0
  // are erased to keep the maps identical). mean cw is recomputed in full.
  // O(changed × vocabulary + databases).
  static ScoringStatisticsCache Rebuilt(
      const ScoringStatisticsCache& prior,
      const std::vector<const summary::SummaryView*>& summaries,
      const std::vector<const summary::SummaryView*>& prior_summaries,
      const std::vector<size_t>& changed);

  // cf(w) over the cached set; 0 for words no summary contains. A pure
  // lookup: discarding the result is always a bug (the hit/miss counters
  // it bumps are not a sanctioned side effect to call it for).
  [[nodiscard]] size_t CollectionFrequency(const std::string& word) const;

  double mean_cw() const { return mean_cw_; }
  size_t num_summaries() const { return summaries_.size(); }
  size_t vocabulary_size() const { return cf_.size(); }

  // Fills context.cached_cf / cached_mean_cw for the query's terms over
  // context.ranked_summaries, replacing any earlier fill. Starts from
  // this cache's values and, for every position where the context ranks a
  // different summary than the cache was built over (adaptive shrinkage,
  // category fallback; every position for an empty cache), applies a ±1
  // cf correction per term and recomputes mean cw over the ranked set.
  // O(query terms × differing positions + databases). Aborts when a
  // non-empty cache was built over a different number of summaries than
  // the context ranks.
  //
  // `trace` (optional) records the fill as a statistics_cache_fill span
  // under the caller's request trace; observational only.
  void FillContext(const Query& query, ScoringContext& context,
                   const util::TraceContext& trace = {}) const;

 private:
  std::unordered_map<std::string, size_t> cf_;
  double mean_cw_ = 1.0;
  std::vector<const summary::SummaryView*> summaries_;
};

// How a scorer's per-term contributions combine into one query score
// (before FinalizeScore).
enum class TermCombine {
  kSum,      // score = FinalizeScore(init + Σ contribution)  (CORI)
  kProduct,  // score = FinalizeScore(init · Π contribution)  (LM, bGlOSS)
};

// A database selection algorithm: assigns s(q, D) from D's content summary
// (Section 2.1). Implementations must be stateless so one instance can be
// shared across threads and experiments.
//
// Every value-returning member is [[nodiscard]]: scorers are pure
// functions of their arguments, so a discarded result is always a wasted
// computation and usually a logic error.
class ScoringFunction {
 public:
  virtual ~ScoringFunction() = default;

  virtual std::string_view name() const = 0;

  // Score of database `db` for `query`. Higher is better.
  [[nodiscard]] virtual double Score(const Query& query,
                                     const summary::SummaryView& db,
                                     const ScoringContext& context) const = 0;

  // The "default" score: what `db` would score if it contained none of the
  // query words. A database whose score equals this value is considered not
  // selected (Section 6.2's R_k discussion).
  [[nodiscard]] virtual double DefaultScore(
      const Query& query, const summary::SummaryView& db,
      const ScoringContext& context) const = 0;

  // --- Per-term form (the adaptive score moments) ---
  //
  // Every scorer treats query terms independently, so its score is a fold
  // of per-term contributions, each a function of the term's document
  // frequency d in `db`:
  //
  //   combined = CombineInit(q, D, ctx)
  //   for i in terms: combined (+|·)= contribution of terms[i] at its df
  //   score = FinalizeScore(q, combined)
  //
  // The adaptive selector (core/adaptive.cc) needs the mean and standard
  // deviation of the score when each word w_k's document frequency d_k is
  // uncertain: Section 4's factored computation. It tabulates every
  // distinct term's contribution over the posterior support of d_k
  // (TermContributionTable) and takes both moments exactly from those
  // rows.
  //
  // Contract for implementers (pinned by tests/selection/scorers_test.cc):
  //  - folding TermContributionTable values, one df per distinct term,
  //    is BIT-IDENTICAL to Score over `db` with those document
  //    frequencies (token frequencies scaled proportionally: a seen word
  //    keeps its tf/df ratio, an unseen word gets tf = df);
  //  - FinalizeScore is affine in `combined` for a fixed query:
  //    FinalizeScore(q, x) = FinalizeScore(q, 0) + a·x with
  //    a = FinalizeScore(q, 1) − FinalizeScore(q, 0). The score's mean
  //    maps through it and its standard deviation scales by |a|;
  //  - kProduct contributions are non-negative (their moments are
  //    combined across terms in log space).
  virtual TermCombine term_combine() const = 0;
  // Fold seed (0 for sums; 1 or a db-dependent factor for products).
  [[nodiscard]] virtual double CombineInit(
      const Query& query, const summary::SummaryView& db,
      const ScoringContext& context) const = 0;
  // Fills out[g] with the contribution of query.terms[term_index] if its
  // document frequency in `db` were dfs[g], for g in [0, count).
  virtual void TermContributionTable(const Query& query, size_t term_index,
                                     const summary::SummaryView& db,
                                     const ScoringContext& context,
                                     const double* dfs, size_t count,
                                     double* out) const = 0;
  // Maps the fold to the score; must be affine in `combined` (see the
  // contract above). The default is the identity.
  [[nodiscard]] virtual double FinalizeScore(const Query& query,
                                             double combined) const;
};

}  // namespace fedsearch::selection

#endif  // FEDSEARCH_SELECTION_SCORING_H_

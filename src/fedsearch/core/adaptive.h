#ifndef FEDSEARCH_CORE_ADAPTIVE_H_
#define FEDSEARCH_CORE_ADAPTIVE_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "fedsearch/core/epoch.h"
#include "fedsearch/sampling/sample_result.h"
#include "fedsearch/selection/scoring.h"
#include "fedsearch/summary/content_summary.h"
#include "fedsearch/util/deadline.h"
#include "fedsearch/util/rng.h"
#include "fedsearch/util/trace.h"

namespace fedsearch::core {

// Parameters of the score-uncertainty computation of Section 4 / Appendix B.
// The paper estimates the mean and standard deviation of s(q, D) by
// Monte-Carlo over (d1, ..., dn) combinations; the scorers fold independent
// per-term contributions, so both moments are computed exactly instead —
// the values such a Monte-Carlo converges to.
struct AdaptiveOptions {
  // Log-spaced grid resolution of each word's posterior p(d_k | s_k).
  size_t grid_points = 64;

  // Shrinkage fires when stddev > uncertainty_threshold · (mean − default
  // score). The paper states the rule as "standard deviation ... larger
  // than its mean"; applied literally, scorers with a built-in belief
  // floor (CORI's 0.4 term, LM's global smoothing) can never qualify, so
  // the mean is first reduced by the scorer's default score and the
  // comparison is scaled by this threshold (see DESIGN.md).
  double uncertainty_threshold = 0.3;

  // Section 4's boundary cases: when every query word appears in close to
  // all sample documents — or in close to none — "shrinkage would provide
  // limited benefit and should then be avoided". With this gate on, the
  // score-distribution test only runs for mixed-evidence pairs: at least
  // one query word solidly present in the sample and at least one absent.
  bool require_mixed_evidence = true;
  // "Solidly present": sample df >= this.
  size_t present_min_df = 2;
};

// γ = 1/α − 1, the power-law prior exponent of Appendix B, from a
// database's Mandelbrot rank-frequency exponent α. Degenerate fits are
// clamped: a near-zero α (e.g. −0.01 from a two-point fit over a tiny
// sample) would yield γ ≈ −101 and collapse the posterior p(d|s) onto
// d = 1 regardless of the binomial evidence, so any α that is not safely
// negative (α > −0.25, including non-negative and non-finite values)
// falls back to the pure-Zipf default α = −1 (γ = −2), the same default
// used when no fit is available. Exposed for testing.
double PowerLawGamma(double mandelbrot_alpha);

// The per-database constants of the Appendix B posterior grid, shared by
// every sample-frequency posterior of one database: the deduplicated
// log-spaced integer support over [1, |D|] plus, per grid point, the
// precomputed prior γ·ln d and the binomial log-bases ln(d/|D|) and
// ln(1 − d/|D|). Flat (SoA) contiguous arrays, so building one posterior
// from the basis is a single fused, vectorizable pass over the grid —
// only the two multipliers s and |S|−s depend on the word.
//
// Grid points with 1 − d/|D| <= 0 (d has reached |D|) have no finite
// ln(1 − d/|D|); the support is strictly increasing, so they form a
// suffix starting at zero_q_begin() and their log_q() slots are unused.
class PosteriorGridBasis {
 public:
  PosteriorGridBasis(double db_size, double gamma, size_t grid_points);

  size_t size() const { return support_.size(); }
  const std::vector<double>& support() const { return support_; }
  const std::vector<double>& prior_log_weight() const { return prior_; }
  const std::vector<double>& log_p() const { return log_p_; }
  const std::vector<double>& log_q() const { return log_q_; }
  size_t zero_q_begin() const { return zero_q_begin_; }

  double db_size() const { return db_size_; }
  double gamma() const { return gamma_; }
  size_t grid_points() const { return grid_points_; }

 private:
  std::vector<double> support_;
  std::vector<double> prior_;
  std::vector<double> log_p_;
  std::vector<double> log_q_;
  size_t zero_q_begin_ = 0;
  double db_size_ = 1.0;
  double gamma_ = 0.0;
  size_t grid_points_ = 0;
};

// The posterior over a query word's true document frequency given its
// sample frequency (Appendix B):
//   p(d | s) ∝ Binomial(s; |S|, d/|D|) · c·d^γ
// with γ = 1/α − 1 from the database's Mandelbrot fit. Discretized on the
// log-spaced grid of a PosteriorGridBasis; stores only the flat weight
// array (the basis is shared across all of a database's posteriors).
// Exposed for testing.
class DocFrequencyPosterior {
 public:
  // Convenience overload: builds a private basis. Prefer the shared-basis
  // overload on hot paths (PosteriorCache pins one basis per database).
  DocFrequencyPosterior(size_t sample_df, size_t sample_size, double db_size,
                        double gamma, size_t grid_points);
  DocFrequencyPosterior(std::shared_ptr<const PosteriorGridBasis> basis,
                        size_t sample_df, size_t sample_size);

  size_t size() const { return weights_.size(); }
  const std::vector<double>& support() const { return basis_->support(); }
  const std::vector<double>& weights() const { return weights_; }
  const PosteriorGridBasis& basis() const { return *basis_; }

 private:
  // The sample-frequency-dependent pass: log-likelihood over the basis
  // grid and exp-normalization against its maximum.
  void BuildWeights(size_t sample_df, size_t sample_size);

  std::shared_ptr<const PosteriorGridBasis> basis_;
  std::vector<double> weights_;  // exp(lw − max lw), in [0, 1]
};

class PosteriorCache;

// Decides — per query and database — whether the sample summary is
// trustworthy or shrinkage should be applied: the Content Summary Selection
// step of Figure 3. Stateless apart from options.
class AdaptiveSummarySelector {
 public:
  explicit AdaptiveSummarySelector(AdaptiveOptions options = {});

  // Computed score-distribution statistics for one (query, database) pair.
  struct Uncertainty {
    double mean = 0.0;
    double stddev = 0.0;
    bool use_shrinkage = false;
  };

  // Computes the mean and standard deviation of scorer's s(q, D) under
  // the document frequency posteriors and applies the paper's rule: use
  // the shrunk summary iff stddev > mean (see AdaptiveOptions for the
  // floor and threshold). `sample` supplies s_k, |S|, |D̂| and the
  // power-law exponent; `context` must be the context the real scoring
  // will use.
  //
  // Both moments are exact weighted sums over each distinct term's
  // posterior grid, built from the scorer's per-term form
  // (selection/scoring.h), so the result is deterministic: `rng` is
  // unused, and no RNG is read or advanced.
  Uncertainty Evaluate(const selection::Query& query,
                       const sampling::SampleResult& sample,
                       const selection::ScoringFunction& scorer,
                       const selection::ScoringContext& context,
                       util::Rng& rng) const {
    return Evaluate(query, sample, scorer, context, rng, nullptr, 0);
  }

  // Same, but memoizing the per-word posteriors in `cache` under
  // `database_index` (see PosteriorCache). The posterior for a word
  // depends only on (s_k, |S|, |D̂|, γ, grid_points) — everything except
  // s_k is fixed per database — so across a query workload the cache
  // converges to one entry per distinct sample frequency and the hit rate
  // approaches 100%. Results are bit-identical to the uncached overload.
  //
  // `epoch` is the summary epoch of `sample` for this database (0 for
  // static deployments); the cache checks it against the epoch its shard
  // was pinned at (see PosteriorCache).
  //
  // A non-null `deadline` marks this evaluation as one unit of bounded
  // work: the call charges Costs::adaptive_evaluation_ms on entry — the
  // per-database evaluation boundary of the deadline contract — and, when
  // that charge crosses the budget, skips the posterior work entirely
  // (the enclosing request is aborting; its decision will never be used).
  // The charge is unconditional so consumed_ms() stays an exact replay of
  // the cost model regardless of gate outcomes.
  // `trace` (optional) parents the posterior_grid_build spans recorded on
  // cache misses under the caller's request trace; observational only.
  Uncertainty Evaluate(const selection::Query& query,
                       const sampling::SampleResult& sample,
                       const selection::ScoringFunction& scorer,
                       const selection::ScoringContext& context,
                       util::Rng& rng, PosteriorCache* cache,
                       size_t database_index, SummaryEpoch epoch = 0,
                       util::Deadline* deadline = nullptr,
                       const util::TraceContext& trace = {}) const;

 private:
  AdaptiveOptions options_;
};

}  // namespace fedsearch::core

#endif  // FEDSEARCH_CORE_ADAPTIVE_H_

#include "fedsearch/core/adaptive.h"

#include <algorithm>
#include <cmath>

#include "fedsearch/core/posterior_cache.h"
#include "fedsearch/util/check.h"
#include "fedsearch/util/math.h"
#include "fedsearch/util/metrics.h"

namespace fedsearch::core {

namespace {

struct AdaptiveMetrics {
  util::Counter& evaluations =
      util::GlobalMetrics().counter("adaptive.evaluations");
  util::Counter& gate_complete_sample =
      util::GlobalMetrics().counter("adaptive.gate_complete_sample");
  util::Counter& gate_no_mixed_evidence =
      util::GlobalMetrics().counter("adaptive.gate_no_mixed_evidence");
  util::Counter& chose_shrunk =
      util::GlobalMetrics().counter("adaptive.chose_shrunk");
  util::Counter& chose_plain =
      util::GlobalMetrics().counter("adaptive.chose_plain");
  // Evaluations skipped because the request's deadline had already
  // expired. Every evaluation lands in exactly one disposition:
  //   chose_shrunk + chose_plain + deadline_skipped == evaluations.
  util::Counter& deadline_skipped =
      util::GlobalMetrics().counter("adaptive.deadline_skipped");
  // σ / max(µ − floor) in integer milli-units; the decision threshold
  // lives on this axis, so its distribution shows how close calls are.
  util::Histogram& sigma_mu_ratio_e3 =
      util::GlobalMetrics().histogram("adaptive.sigma_mu_ratio_e3");
  util::Histogram& evaluate_ns =
      util::GlobalMetrics().histogram("adaptive.evaluate_ns");
};

AdaptiveMetrics& Metrics() {
  static AdaptiveMetrics* m = new AdaptiveMetrics();
  return *m;
}

// One distinct query term: its first occurrence in the query, its
// occurrence count m_k, its sample document frequency s_k and its
// posterior p(d_k | s_k).
struct DistinctTerm {
  size_t first = 0;
  size_t count = 0;
  size_t sample_df = 0;
  const DocFrequencyPosterior* posterior = nullptr;
};

struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
};

// Exact mean and standard deviation of the combined (pre-FinalizeScore)
// score when each distinct term's document frequency is distributed by its
// posterior, independently of the other terms, and every occurrence of a
// term reuses its one value. Term k contributes its row c_i =
// TermContributionTable over the posterior support with probabilities
// p_i = w_i / Σw:
//   kSum:     mean  = init + Σ_k m_k·E[X_k]
//             var   = Σ_k m_k²·Var[X_k]
//   kProduct: mean  = init·Π_k E[X_k^m_k]
//             E[s²] = init²·Π_k E[X_k^2m_k]
// Sums run in two passes, shifted by c_0 so a constant row has exactly
// zero variance. Product moments are taken per term in linear space (c^m
// as a short product, then one weighted sum) and combined across terms as
// sums of logs, so a long query cannot underflow E[s²]: with
// L = Σ_k log E[X_k^m_k] and x = Σ_k log(E[X_k^2m_k] / E[X_k^m_k]²),
// var = mean²·expm1(x), evaluated as
// sd = |init|·exp(L + x/2)·sqrt(−expm1(−x)) so a large x cannot overflow.
// One log per term, none per grid point.
Moments CombinedScoreMoments(const selection::ScoringFunction& scorer,
                             const selection::Query& query,
                             const summary::SummaryView& db,
                             const selection::ScoringContext& context,
                             const std::vector<DistinctTerm>& terms) {
  const double init = scorer.CombineInit(query, db, context);
  const bool product =
      scorer.term_combine() == selection::TermCombine::kProduct;
  double mean = init;      // kSum
  double variance = 0.0;   // kSum
  double log_mean = 0.0;   // kProduct: L
  double log_ratio = 0.0;  // kProduct: x
  std::vector<double> row;
  for (const DistinctTerm& t : terms) {
    const std::vector<double>& support = t.posterior->support();
    const double* w = t.posterior->weights().data();
    const size_t n = support.size();
    row.resize(n);
    scorer.TermContributionTable(query, t.first, db, context, support.data(),
                                 n, row.data());
    double total = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    if (!product) {
      const double shift = row[0];
      for (size_t i = 0; i < n; ++i) {
        total += w[i];
        s1 += w[i] * (row[i] - shift);
      }
      const double centre = s1 / total;
      for (size_t i = 0; i < n; ++i) {
        const double dev = (row[i] - shift) - centre;
        s2 += w[i] * dev * dev;
      }
      const double m = static_cast<double>(t.count);
      mean += m * (shift + centre);
      variance += m * m * (s2 / total);
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      FEDSEARCH_DCHECK(row[i] >= 0.0)
          << " " << scorer.name() << " product contribution " << row[i]
          << " at grid point " << i;
      double power = row[i];
      for (size_t j = 1; j < t.count; ++j) power *= row[i];
      total += w[i];
      s1 += w[i] * power;
      s2 += w[i] * power * power;
    }
    // A factor that is zero at every grid point zeroes every score.
    if (s1 <= 0.0) return Moments{};
    log_mean += std::log(s1 / total);
    log_ratio += std::log((s2 / s1) * (total / s1));
  }
  if (!product) return Moments{mean, std::sqrt(variance)};
  // E[X²] >= E[X]², so x >= 0 up to rounding.
  const double x = std::max(0.0, log_ratio);
  return Moments{init * std::exp(log_mean),
                 std::fabs(init) * std::exp(log_mean + 0.5 * x) *
                     std::sqrt(-std::expm1(-x))};
}

}  // namespace

double PowerLawGamma(double mandelbrot_alpha) {
  // α must be safely negative: γ = 1/α − 1 diverges as α → 0⁻, and a
  // degenerate fit (two usable rank points, a near-flat slope) would turn
  // into an overwhelming d^γ prior that no binomial evidence can offset.
  constexpr double kMinNegativeAlpha = -0.25;
  double alpha = mandelbrot_alpha;
  if (!std::isfinite(alpha) || alpha > kMinNegativeAlpha) alpha = -1.0;
  const double gamma = 1.0 / alpha - 1.0;
  // Post-condition of the clamp above: γ stays finite (α ≤ -0.25 bounds it
  // to [-5, -1)), so the posterior's d^γ prior can never overflow.
  FEDSEARCH_CHECK(std::isfinite(gamma)) << " gamma from alpha " << alpha;
  return gamma;
}

PosteriorGridBasis::PosteriorGridBasis(double db_size, double gamma,
                                       size_t grid_points)
    : db_size_(std::max(1.0, db_size)),
      gamma_(gamma),
      grid_points_(grid_points) {
  FEDSEARCH_CHECK(grid_points > 0);
  FEDSEARCH_CHECK(std::isfinite(gamma)) << " non-finite gamma";
  const double n = db_size_;
  // Log-spaced integer grid over [1, |D|], deduplicated (rounding
  // collapses neighboring points when |D| is small relative to the grid).
  support_.reserve(grid_points);
  double prev = 0.0;
  for (size_t i = 0; i < grid_points; ++i) {
    const double frac = grid_points > 1
                            ? static_cast<double>(i) /
                                  static_cast<double>(grid_points - 1)
                            : 0.0;
    double d = std::round(std::exp(frac * std::log(n)));
    d = std::clamp(d, 1.0, n);
    if (d <= prev) continue;
    support_.push_back(d);
    prev = d;
  }
  // The grid always retains d = 1 (frac = 0), so posterior supports are
  // never empty and every posterior's largest weight is exp(0) = 1.
  FEDSEARCH_DCHECK(!support_.empty());

  const size_t count = support_.size();
  prior_.resize(count);
  log_p_.resize(count);
  log_q_.resize(count);
  zero_q_begin_ = count;
  for (size_t i = 0; i < count; ++i) {
    const double d = support_[i];
    const double p = d / n;
    prior_[i] = gamma * std::log(d);
    log_p_[i] = std::log(p);
    const double q = 1.0 - p;
    if (q <= 0.0) {
      // d/|D| is nondecreasing over the (sorted) support, so the first
      // q <= 0 point starts the suffix where ln(1−p) has no finite value.
      if (zero_q_begin_ == count) zero_q_begin_ = i;
      log_q_[i] = 0.0;  // unused
    } else {
      log_q_[i] = std::log(q);
    }
  }
}

DocFrequencyPosterior::DocFrequencyPosterior(size_t sample_df,
                                             size_t sample_size,
                                             double db_size, double gamma,
                                             size_t grid_points)
    : basis_(std::make_shared<PosteriorGridBasis>(db_size, gamma,
                                                  grid_points)) {
  BuildWeights(sample_df, sample_size);
}

DocFrequencyPosterior::DocFrequencyPosterior(
    std::shared_ptr<const PosteriorGridBasis> basis, size_t sample_df,
    size_t sample_size)
    : basis_(std::move(basis)) {
  FEDSEARCH_CHECK(basis_ != nullptr);
  BuildWeights(sample_df, sample_size);
}

void DocFrequencyPosterior::BuildWeights(size_t sample_df,
                                         size_t sample_size) {
  FEDSEARCH_DCHECK(sample_df <= sample_size)
      << " sample_df " << sample_df << " > sample size " << sample_size;
  const size_t count = basis_->size();
  const double s = static_cast<double>(sample_df);
  const double trials = static_cast<double>(sample_size);
  const double* prior = basis_->prior_log_weight().data();
  const double* log_p = basis_->log_p().data();
  const double* log_q = basis_->log_q().data();

  // Log-space posterior: γ·ln d + s·ln(d/|D|) + (|S|−s)·ln(1−d/|D|), with
  // the basis supplying every logarithm — only the two word-dependent
  // multipliers remain. Points where 1−d/|D| <= 0 get the −1e300 sentinel
  // (d == |D| impossible unless the word is in every sample document);
  // they are a suffix of the monotone support, so each case below is a
  // branch-free contiguous pass the compiler can vectorize.
  const size_t finite_end =
      trials > s ? std::min(basis_->zero_q_begin(), count) : count;
  std::vector<double> log_w(count);
  if (s > 0.0 && trials > s) {
    for (size_t i = 0; i < finite_end; ++i) {
      double lw = prior[i];
      lw += s * log_p[i];
      lw += (trials - s) * log_q[i];
      log_w[i] = lw;
    }
  } else if (s > 0.0) {
    for (size_t i = 0; i < finite_end; ++i) {
      double lw = prior[i];
      lw += s * log_p[i];
      log_w[i] = lw;
    }
  } else if (trials > s) {
    for (size_t i = 0; i < finite_end; ++i) {
      double lw = prior[i];
      lw += (trials - s) * log_q[i];
      log_w[i] = lw;
    }
  } else {
    for (size_t i = 0; i < finite_end; ++i) log_w[i] = prior[i];
  }
  for (size_t i = finite_end; i < count; ++i) log_w[i] = -1e300;

  double max_log = -1e300;
  for (size_t i = 0; i < count; ++i) max_log = std::max(max_log, log_w[i]);
  weights_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    weights_[i] = std::exp(log_w[i] - max_log);
    FEDSEARCH_DCHECK(std::isfinite(weights_[i]) && weights_[i] >= 0.0)
        << " posterior weight " << weights_[i] << " at grid point " << i;
  }
}

AdaptiveSummarySelector::AdaptiveSummarySelector(AdaptiveOptions options)
    : options_(options) {}

AdaptiveSummarySelector::Uncertainty AdaptiveSummarySelector::Evaluate(
    const selection::Query& query, const sampling::SampleResult& sample,
    const selection::ScoringFunction& scorer,
    const selection::ScoringContext& context, util::Rng& /*rng: unused*/,
    PosteriorCache* cache, size_t database_index, SummaryEpoch epoch,
    util::Deadline* deadline, const util::TraceContext& trace) const {
  Metrics().evaluations.Add();
  util::ScopedTimer evaluate_timer(Metrics().evaluate_ns);
  Uncertainty result;
  // The charge that crosses the budget still lands (exact cost replay),
  // but the posterior work it pays for is skipped: the enclosing
  // request is past its deadline and the decision would be discarded.
  // The skip is still a disposition — counting it keeps
  // chose_shrunk + chose_plain + deadline_skipped == evaluations, so
  // /statusz consumers can reconcile the counters.
  if (deadline != nullptr && !deadline->ChargeAdaptiveEvaluation()) {
    Metrics().deadline_skipped.Add();
    return result;
  }
  const double db_size = std::max(1.0, sample.estimated_db_size);

  // A sample that covered (almost) the whole database is already
  // "sufficiently complete"; shrinkage could only add spurious words
  // (Section 4).
  if (static_cast<double>(sample.sample_size) >= 0.9 * db_size) {
    Metrics().gate_complete_sample.Add();
    Metrics().chose_plain.Add();
    return result;
  }
  if (query.terms.empty()) {
    Metrics().chose_plain.Add();
    return result;
  }

  // Duplicate query terms denote one latent document frequency: one
  // posterior per DISTINCT term, in first-occurrence order, whose value
  // every occurrence reuses. The linear scan keeps dedup deterministic
  // without ordered containers, and queries are a handful of terms. Each
  // distinct term's s_k is looked up here, once.
  std::vector<DistinctTerm> terms;
  terms.reserve(query.terms.size());
  for (size_t i = 0; i < query.terms.size(); ++i) {
    const auto same =
        std::find_if(terms.begin(), terms.end(), [&](const DistinctTerm& t) {
          return query.terms[t.first] == query.terms[i];
        });
    if (same != terms.end()) {
      ++same->count;
    } else {
      auto it = sample.sample_df.find(query.terms[i]);
      terms.push_back(DistinctTerm{
          i, 1, it != sample.sample_df.end() ? it->second : 0, nullptr});
    }
  }

  // Section 4's boundary-case gate: all words present (summary already
  // trustworthy for this query) or all words absent (the database is
  // confidently a poor match) -> no shrinkage. A single-word query cannot
  // show mixed evidence, so it passes whenever its word is absent — the
  // paper's [hemophilia] scenario (Example 1), where the sample missing
  // one rare word is precisely the uncertainty shrinkage resolves. The
  // size test counts occurrences, so {w, w} is gated too; a duplicate has
  // its term's s_k, so the distinct terms decide as every occurrence would.
  if (options_.require_mixed_evidence && query.terms.size() > 1) {
    bool any_present = false;
    bool any_absent = false;
    for (const DistinctTerm& t : terms) {
      if (t.sample_df >= options_.present_min_df) any_present = true;
      if (t.sample_df == 0) any_absent = true;
    }
    if (!any_present || !any_absent) {
      Metrics().gate_no_mixed_evidence.Add();
      Metrics().chose_plain.Add();
      return result;
    }
  }

  // γ = 1/α − 1 from the rank-frequency exponent (Appendix B; [1]),
  // with degenerate fits falling back to the Zipf default (PowerLawGamma).
  const double gamma = PowerLawGamma(sample.mandelbrot_alpha);

  // Per-word posteriors p(d_k | s_k) — memoized per (database, s_k) when a
  // cache is supplied, since all other posterior parameters are fixed per
  // database. Uncached evaluations still share one grid basis across the
  // query's words.
  std::vector<DocFrequencyPosterior> owned;
  std::shared_ptr<const PosteriorGridBasis> local_basis;
  owned.reserve(cache == nullptr ? terms.size() : 0);
  for (DistinctTerm& t : terms) {
    if (cache != nullptr) {
      t.posterior = cache->Get(database_index, t.sample_df,
                               sample.sample_size, db_size, gamma,
                               options_.grid_points, epoch, trace);
    } else {
      if (local_basis == nullptr) {
        local_basis = std::make_shared<PosteriorGridBasis>(
            db_size, gamma, options_.grid_points);
      }
      owned.emplace_back(local_basis, t.sample_df, sample.sample_size);
      t.posterior = &owned.back();
    }
  }

  const Moments combined =
      CombinedScoreMoments(scorer, query, sample.summary, context, terms);
  // FinalizeScore is affine in the combined score (selection/scoring.h):
  // the mean maps through it and the standard deviation scales by its
  // slope.
  result.mean = scorer.FinalizeScore(query, combined.mean);
  result.stddev = std::fabs(scorer.FinalizeScore(query, 1.0) -
                            scorer.FinalizeScore(query, 0.0)) *
                  combined.stddev;
  // Figure 3's rule: high variance relative to the mean marks the sample
  // summary as unreliable. Scorers with a built-in belief floor (CORI's
  // 0.4, LM's global smoothing) would otherwise never qualify — the floor
  // inflates the mean without carrying any database-specific evidence — so
  // the comparison uses the mean's excess over the scorer's default score,
  // scaled by the configured threshold (see AdaptiveOptions).
  const double floor = scorer.DefaultScore(query, sample.summary, context);
  const double excess = std::max(0.0, result.mean - floor);
  result.use_shrinkage =
      result.stddev > options_.uncertainty_threshold * excess;
  // σ/excess in integer milli-units, clamped to 1e6. A zero-excess
  // evaluation (mean at or below the scorer's floor) is the always-shrink
  // limit of the rule — any spread beats a zero margin — and used to be
  // dropped from the histogram, hiding exactly the decisive cases; it now
  // records at the clamp ceiling so every decided evaluation lands in a
  // bucket.
  const double clamped_ratio =
      excess > 0.0 ? std::min(result.stddev / excess, 1e6) : 1e6;
  Metrics().sigma_mu_ratio_e3.Record(
      static_cast<uint64_t>(clamped_ratio * 1e3));
  (result.use_shrinkage ? Metrics().chose_shrunk : Metrics().chose_plain)
      .Add();
  return result;
}

}  // namespace fedsearch::core

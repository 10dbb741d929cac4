#include "fedsearch/core/adaptive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fedsearch/core/posterior_cache.h"
#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/lm.h"
#include "fedsearch/util/deadline.h"
#include "fedsearch/util/math.h"
#include "fedsearch/util/metrics.h"
#include "fedsearch/util/rng.h"
#include "testing/override_summary.h"

namespace fedsearch::core {
namespace {

using testing::OverrideSummary;

// ------------------------------------------------------------ OverrideSummary

TEST(OverrideSummaryTest, OverridesDfAndScalesCtf) {
  summary::ContentSummary base;
  base.set_num_documents(100);
  base.SetWord("w", summary::WordStats{10, 30});  // 3 occurrences per doc
  std::unordered_map<std::string, double> overrides = {{"w", 20.0}};
  OverrideSummary view(&base, &overrides);
  EXPECT_DOUBLE_EQ(view.DocFrequency("w"), 20.0);
  EXPECT_DOUBLE_EQ(view.TokenFrequency("w"), 60.0);  // ratio preserved
  EXPECT_DOUBLE_EQ(view.num_documents(), 100.0);
}

TEST(OverrideSummaryTest, UnseenWordGetsOneOccurrencePerDoc) {
  summary::ContentSummary base;
  base.set_num_documents(100);
  std::unordered_map<std::string, double> overrides = {{"new", 5.0}};
  OverrideSummary view(&base, &overrides);
  EXPECT_DOUBLE_EQ(view.DocFrequency("new"), 5.0);
  EXPECT_DOUBLE_EQ(view.TokenFrequency("new"), 5.0);
}

TEST(OverrideSummaryTest, PassesThroughOtherWords) {
  summary::ContentSummary base;
  base.set_num_documents(100);
  base.SetWord("kept", summary::WordStats{7, 9});
  std::unordered_map<std::string, double> overrides;
  OverrideSummary view(&base, &overrides);
  EXPECT_DOUBLE_EQ(view.DocFrequency("kept"), 7.0);
  EXPECT_DOUBLE_EQ(view.TokenFrequency("kept"), 9.0);
}

TEST(OverrideSummaryTest, ForEachWordAppliesOverrides) {
  summary::ContentSummary base;
  base.set_num_documents(100);
  base.SetWord("w", summary::WordStats{10, 30});  // 3 occurrences per doc
  base.SetWord("kept", summary::WordStats{7, 9});
  std::unordered_map<std::string, double> overrides = {{"w", 20.0},
                                                       {"new", 5.0}};
  OverrideSummary view(&base, &overrides);
  std::unordered_map<std::string, summary::WordStats> seen;
  view.ForEachWord([&](const std::string& word,
                       const summary::WordStats& stats) {
    EXPECT_TRUE(seen.emplace(word, stats).second) << word << " emitted twice";
  });
  ASSERT_EQ(seen.size(), 3u);
  // Iteration must report the same perturbed values as point lookups.
  EXPECT_DOUBLE_EQ(seen.at("w").df, 20.0);
  EXPECT_DOUBLE_EQ(seen.at("w").ctf, 60.0);  // per-doc ratio preserved
  EXPECT_DOUBLE_EQ(seen.at("kept").df, 7.0);
  EXPECT_DOUBLE_EQ(seen.at("kept").ctf, 9.0);
  // Overridden word unseen in the base vocabulary is emitted too.
  EXPECT_DOUBLE_EQ(seen.at("new").df, 5.0);
  EXPECT_DOUBLE_EQ(seen.at("new").ctf, 5.0);
  EXPECT_EQ(view.vocabulary_size(), 3u);
}

// ------------------------------------------------------ DocFrequencyPosterior

TEST(DocFrequencyPosteriorTest, SupportSpansOneToDbSize) {
  DocFrequencyPosterior post(/*sample_df=*/5, /*sample_size=*/100,
                             /*db_size=*/10000, /*gamma=*/-2.0,
                             /*grid_points=*/64);
  ASSERT_FALSE(post.support().empty());
  EXPECT_DOUBLE_EQ(post.support().front(), 1.0);
  EXPECT_DOUBLE_EQ(post.support().back(), 10000.0);
}

TEST(DocFrequencyPosteriorTest, PosteriorPeaksNearScaledSampleFrequency) {
  // s_k = 30 of |S| = 100 from |D| = 1000: the likelihood peaks near
  // d = 300 (the prior pulls it somewhat lower).
  DocFrequencyPosterior post(30, 100, 1000, -2.0, 128);
  const auto& support = post.support();
  const auto& weights = post.weights();
  size_t argmax = 0;
  for (size_t i = 1; i < weights.size(); ++i) {
    if (weights[i] > weights[argmax]) argmax = i;
  }
  EXPECT_GT(support[argmax], 150.0);
  EXPECT_LT(support[argmax], 400.0);
}

TEST(DocFrequencyPosteriorTest, UnseenWordsConcentrateOnSmallD) {
  DocFrequencyPosterior post(/*sample_df=*/0, /*sample_size=*/300,
                             /*db_size=*/100000, -2.0, 128);
  // Expected d under the posterior must be a vanishing fraction of |D|.
  double mean = 0.0, total = 0.0;
  for (size_t i = 0; i < post.support().size(); ++i) {
    mean += post.support()[i] * post.weights()[i];
    total += post.weights()[i];
  }
  mean /= total;
  EXPECT_LT(mean, 1000.0);
}

TEST(DocFrequencyPosteriorTest, SingleDocumentDatabaseEdgeGrid) {
  // |D| = 1 collapses the grid to the single point d = 1, which must carry
  // all the mass with a well-formed (finite, normalized) weight.
  const DocFrequencyPosterior post(/*sample_df=*/0, /*sample_size=*/10,
                                   /*db_size=*/1.0, -2.0, 64);
  ASSERT_EQ(post.support().size(), 1u);
  EXPECT_DOUBLE_EQ(post.support()[0], 1.0);
  ASSERT_EQ(post.weights().size(), 1u);
  EXPECT_TRUE(std::isfinite(post.weights()[0]));
  EXPECT_DOUBLE_EQ(post.weights()[0], 1.0);
}

TEST(DocFrequencyPosteriorTest, FullySampledWordEdgeGrid) {
  // sample_df == sample_size: the (|S|−s)·ln(1−d/|D|) factor vanishes, so
  // even the d = |D| grid point (where ln(1−d/|D|) is −inf) keeps a
  // finite, positive weight — the posterior must lean toward large d.
  const DocFrequencyPosterior post(/*sample_df=*/100, /*sample_size=*/100,
                                   /*db_size=*/1000, -2.0, 64);
  const auto& support = post.support();
  const auto& weights = post.weights();
  ASSERT_EQ(support.back(), 1000.0);
  for (const double w : weights) {
    ASSERT_TRUE(std::isfinite(w));
    ASSERT_GE(w, 0.0);
  }
  EXPECT_GT(weights.back(), 0.0);  // d = |D| not struck by the -inf sentinel
  size_t argmax = 0;
  for (size_t i = 1; i < weights.size(); ++i) {
    if (weights[i] > weights[argmax]) argmax = i;
  }
  EXPECT_GT(support[argmax], 500.0);
}

TEST(DocFrequencyPosteriorTest, SmallDatabaseSupportIsStrictlyIncreasing) {
  // More grid points than integers in [1, |D|]: the log-spaced grid
  // collides and must deduplicate into a strictly increasing support.
  const DocFrequencyPosterior post(2, 10, 10.0, -2.0, 64);
  const auto& support = post.support();
  ASSERT_LE(support.size(), 10u);
  for (size_t i = 1; i < support.size(); ++i) {
    ASSERT_LT(support[i - 1], support[i]);
  }
  EXPECT_DOUBLE_EQ(support.front(), 1.0);
  EXPECT_DOUBLE_EQ(support.back(), 10.0);
}

TEST(DocFrequencyPosteriorTest, SharedBasisMatchesPrivateBasisBitwise) {
  // The two constructors must build identical grids: the shared-basis
  // overload only hoists the word-independent arrays.
  auto basis = std::make_shared<PosteriorGridBasis>(30000.0, -2.0, 64);
  for (const size_t sample_df : {size_t{0}, size_t{7}, size_t{200}}) {
    const DocFrequencyPosterior shared(basis, sample_df, 200);
    const DocFrequencyPosterior priv(sample_df, 200, 30000.0, -2.0, 64);
    ASSERT_EQ(shared.size(), priv.size());
    for (size_t i = 0; i < shared.size(); ++i) {
      ASSERT_EQ(shared.support()[i], priv.support()[i]);
      ASSERT_EQ(shared.weights()[i], priv.weights()[i]);
    }
  }
}

// -------------------------------------------------------------- PowerLawGamma

TEST(PowerLawGammaTest, HealthyFitsPassThrough) {
  EXPECT_DOUBLE_EQ(PowerLawGamma(-1.0), -2.0);
  EXPECT_DOUBLE_EQ(PowerLawGamma(-1.2), 1.0 / -1.2 - 1.0);
  EXPECT_DOUBLE_EQ(PowerLawGamma(-0.5), -3.0);
}

TEST(PowerLawGammaTest, DegenerateFitsFallBackToZipfDefault) {
  // A near-zero slope (e.g. a two-point fit over a flat tail) would give
  // γ ≈ −101 and collapse the posterior onto d = 1.
  EXPECT_DOUBLE_EQ(PowerLawGamma(-0.01), -2.0);
  EXPECT_DOUBLE_EQ(PowerLawGamma(-0.1), -2.0);
  EXPECT_DOUBLE_EQ(PowerLawGamma(0.0), -2.0);
  EXPECT_DOUBLE_EQ(PowerLawGamma(0.7), -2.0);
  EXPECT_DOUBLE_EQ(PowerLawGamma(std::nan("")), -2.0);
  EXPECT_DOUBLE_EQ(PowerLawGamma(-std::numeric_limits<double>::infinity()),
                   -2.0);
}

// --------------------------------------------------- AdaptiveSummarySelector

sampling::SampleResult MakeSample(double db_size, size_t sample_size) {
  sampling::SampleResult s;
  s.sample_size = sample_size;
  s.estimated_db_size = db_size;
  s.mandelbrot_alpha = -1.2;
  s.summary.set_num_documents(db_size);
  return s;
}

uint64_t CounterValue(const char* name) {
  return util::GlobalMetrics().counter(name).value();
}

TEST(AdaptiveSelectorTest, FullyCoveredDatabaseNeverShrinks) {
  // Section 4: if the sample covered (almost) the whole database, the
  // summary is already sufficiently complete.
  sampling::SampleResult s = MakeSample(100, 100);
  s.summary.SetWord("w", summary::WordStats{40, 40});
  s.sample_df["w"] = 40;
  AdaptiveSummarySelector selector;
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(1);
  const uint64_t gated0 = CounterValue("adaptive.gate_complete_sample");
  const auto u =
      selector.Evaluate(selection::Query{{"w"}}, s, bgloss, ctx, rng);
  EXPECT_FALSE(u.use_shrinkage);
  EXPECT_EQ(CounterValue("adaptive.gate_complete_sample") - gated0, 1u);
}

TEST(AdaptiveSelectorTest, UnseenQueryWordTriggersShrinkage) {
  // Mixed evidence — one query word solidly sampled, one absent — makes
  // the bGlOSS score wildly uncertain: the absent word's true frequency
  // could be anything small.
  sampling::SampleResult s = MakeSample(50000, 300);
  s.summary.SetWord("other", summary::WordStats{5000, 6000});
  s.sample_df["other"] = 30;
  AdaptiveSummarySelector selector;
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(2);
  const uint64_t gated0 = CounterValue("adaptive.gate_no_mixed_evidence");
  const auto u = selector.Evaluate(selection::Query{{"other", "missing"}}, s,
                                   bgloss, ctx, rng);
  EXPECT_EQ(CounterValue("adaptive.gate_no_mixed_evidence"), gated0);
  EXPECT_GT(u.stddev, 0.0);
  EXPECT_TRUE(u.use_shrinkage);
}

TEST(AdaptiveSelectorTest, AllWordsAbsentSkipsShrinkage) {
  // Section 4: "every query word appears in close to no sample documents"
  // -> the database is confidently a poor match; no shrinkage.
  sampling::SampleResult s = MakeSample(50000, 300);
  s.summary.SetWord("other", summary::WordStats{5000, 6000});
  s.sample_df["other"] = 30;
  AdaptiveSummarySelector selector;
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(2);
  const uint64_t gated0 = CounterValue("adaptive.gate_no_mixed_evidence");
  const auto u = selector.Evaluate(selection::Query{{"missing", "gone"}}, s,
                                   bgloss, ctx, rng);
  EXPECT_FALSE(u.use_shrinkage);
  EXPECT_EQ(CounterValue("adaptive.gate_no_mixed_evidence") - gated0, 1u);
}

TEST(AdaptiveSelectorTest, RepeatedAbsentWordIsGatedUnlikeItsSingleWord) {
  // The gate counts query terms, not distinct ones: [missing missing] is
  // all-absent evidence and gated, while [missing] cannot show mixed
  // evidence and passes through to the uncertainty rule.
  sampling::SampleResult s = MakeSample(50000, 300);
  AdaptiveSummarySelector selector;
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(2);
  const uint64_t gated0 = CounterValue("adaptive.gate_no_mixed_evidence");
  const auto repeated = selector.Evaluate(
      selection::Query{{"missing", "missing"}}, s, bgloss, ctx, rng);
  EXPECT_FALSE(repeated.use_shrinkage);
  EXPECT_EQ(CounterValue("adaptive.gate_no_mixed_evidence") - gated0, 1u);
  const auto single =
      selector.Evaluate(selection::Query{{"missing"}}, s, bgloss, ctx, rng);
  EXPECT_TRUE(single.use_shrinkage);
  EXPECT_EQ(CounterValue("adaptive.gate_no_mixed_evidence") - gated0, 1u);
}

TEST(AdaptiveSelectorTest, GateCanBeDisabled) {
  sampling::SampleResult s = MakeSample(50000, 300);
  AdaptiveOptions options;
  options.require_mixed_evidence = false;
  AdaptiveSummarySelector selector(options);
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(2);
  const uint64_t gated0 = CounterValue("adaptive.gate_no_mixed_evidence");
  const auto u = selector.Evaluate(selection::Query{{"missing"}}, s, bgloss,
                                   ctx, rng);
  EXPECT_EQ(CounterValue("adaptive.gate_no_mixed_evidence"), gated0);
  EXPECT_TRUE(u.use_shrinkage);
}

TEST(AdaptiveSelectorTest, UbiquitousWordNeedsNoShrinkage) {
  // "If every word in a query appears in close to all the sample
  // documents ... there is little uncertainty" (Section 4). Checked with
  // the evidence gate off so the score-distribution path runs.
  sampling::SampleResult s = MakeSample(10000, 300);
  s.summary.SetWord("always", summary::WordStats{9800, 20000});
  s.sample_df["always"] = 297;
  AdaptiveOptions options;
  options.require_mixed_evidence = false;
  AdaptiveSummarySelector selector(options);
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(3);
  const auto u = selector.Evaluate(selection::Query{{"always"}}, s, bgloss,
                                   ctx, rng);
  EXPECT_FALSE(u.use_shrinkage);
  EXPECT_GT(u.mean, 0.0);
}

TEST(AdaptiveSelectorTest, EmptyQueryNeverShrinks) {
  sampling::SampleResult s = MakeSample(10000, 300);
  AdaptiveSummarySelector selector;
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(4);
  const auto u = selector.Evaluate(selection::Query{}, s, bgloss, ctx, rng);
  EXPECT_FALSE(u.use_shrinkage);
}

TEST(AdaptiveSelectorTest, DegenerateMandelbrotFitDoesNotCollapsePosterior) {
  // With γ computed naively from α = −0.01 (γ ≈ −101) the d^γ prior
  // overwhelms the binomial likelihood and the posterior collapses onto
  // d = 1, so a word sampled in 30% of the sample documents would score as
  // if it occurred in ~1 of 1000 documents.
  sampling::SampleResult s = MakeSample(1000, 100);
  s.mandelbrot_alpha = -0.01;  // degenerate two-point fit
  s.summary.SetWord("w", summary::WordStats{300, 400});
  s.sample_df["w"] = 30;
  AdaptiveOptions options;
  options.require_mixed_evidence = false;
  AdaptiveSummarySelector selector(options);
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(6);
  const auto u =
      selector.Evaluate(selection::Query{{"w"}}, s, bgloss, ctx, rng);
  // bGlOSS scores |D| · d/|D| = d; the posterior for s=30/|S|=100 must put
  // its mass near d ≈ 300, far above the collapsed d = 1.
  EXPECT_GT(u.mean, 50.0);
}

sampling::SampleResult MakeMixedEvidenceSample() {
  sampling::SampleResult s = MakeSample(50000, 300);
  s.summary.SetWord("present", summary::WordStats{5000, 6000});
  s.sample_df["present"] = 30;
  s.summary.SetWord("other", summary::WordStats{900, 1500});
  s.sample_df["other"] = 9;
  return s;
}

TEST(AdaptiveSelectorTest, EvaluateReadsNoRandomness) {
  // The moments are exact: the same inputs give the same result, and the
  // Rng parameter is neither read nor advanced.
  const sampling::SampleResult s = MakeMixedEvidenceSample();
  AdaptiveSummarySelector selector;
  selection::CoriScorer cori;
  selection::ScoringContext ctx;
  ctx.ranked_summaries = {&s.summary};
  const selection::Query query{{"present", "missing", "other"}};
  selection::PrepareContextForQuery(query, ctx);
  util::Rng rng_a(1);
  util::Rng rng_b(99);
  const auto a = selector.Evaluate(query, s, cori, ctx, rng_a);
  const auto b = selector.Evaluate(query, s, cori, ctx, rng_b);
  EXPECT_GT(a.stddev, 0.0);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.use_shrinkage, b.use_shrinkage);
  util::Rng fresh(1);
  EXPECT_EQ(rng_a.NextUint64(), fresh.NextUint64());
}

// ------------------------------------------------ exact moments vs oracle --

struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
};

// Each distinct query word with its posterior, in first-occurrence order.
struct WordPosterior {
  std::string word;
  DocFrequencyPosterior posterior;
};

std::vector<WordPosterior> DistinctPosteriors(const selection::Query& query,
                                              const sampling::SampleResult& s,
                                              size_t grid_points) {
  std::vector<WordPosterior> words;
  for (const std::string& w : query.terms) {
    if (std::any_of(words.begin(), words.end(),
                    [&](const WordPosterior& p) { return p.word == w; })) {
      continue;
    }
    auto it = s.sample_df.find(w);
    const size_t sk = it != s.sample_df.end() ? it->second : 0;
    words.push_back(WordPosterior{
        w, DocFrequencyPosterior(sk, s.sample_size, s.estimated_db_size,
                                 PowerLawGamma(s.mandelbrot_alpha),
                                 grid_points)});
  }
  return words;
}

// The Monte-Carlo the exact moments replace, kept as their statistical
// oracle: every draw takes one d per distinct word from its posterior
// weights (util::DiscreteSampler), overrides it in the summary
// (OverrideSummary) and scores the whole query through Score.
Moments MonteCarloOracle(const selection::Query& query,
                         const sampling::SampleResult& s,
                         const selection::ScoringFunction& scorer,
                         const selection::ScoringContext& ctx, size_t draws,
                         uint64_t seed) {
  const std::vector<WordPosterior> words =
      DistinctPosteriors(query, s, AdaptiveOptions().grid_points);
  std::vector<util::DiscreteSampler> samplers;
  for (const WordPosterior& w : words) {
    samplers.emplace_back(w.posterior.weights());
  }
  std::unordered_map<std::string, double> overrides;
  OverrideSummary perturbed(&s.summary, &overrides);
  util::Rng rng(seed);
  util::RunningStats stats;
  for (size_t n = 0; n < draws; ++n) {
    for (size_t k = 0; k < words.size(); ++k) {
      overrides[words[k].word] =
          words[k].posterior.support()[samplers[k].Sample(rng)];
    }
    stats.Add(scorer.Score(query, perturbed, ctx));
  }
  return Moments{stats.mean(), stats.stddev()};
}

// The same distribution enumerated exhaustively: every combination of grid
// points, weighted by the product of the normalized posterior weights.
Moments EnumeratedMoments(const selection::Query& query,
                          const sampling::SampleResult& s,
                          const selection::ScoringFunction& scorer,
                          const selection::ScoringContext& ctx,
                          size_t grid_points) {
  const std::vector<WordPosterior> words =
      DistinctPosteriors(query, s, grid_points);
  std::vector<double> totals;
  for (const WordPosterior& w : words) {
    double total = 0.0;
    for (const double weight : w.posterior.weights()) total += weight;
    totals.push_back(total);
  }
  std::unordered_map<std::string, double> overrides;
  OverrideSummary perturbed(&s.summary, &overrides);
  std::vector<std::pair<double, double>> outcomes;  // (probability, score)
  std::vector<size_t> point(words.size(), 0);
  for (;;) {
    double probability = 1.0;
    for (size_t k = 0; k < words.size(); ++k) {
      const DocFrequencyPosterior& post = words[k].posterior;
      probability *= post.weights()[point[k]] / totals[k];
      overrides[words[k].word] = post.support()[point[k]];
    }
    outcomes.emplace_back(probability, scorer.Score(query, perturbed, ctx));
    size_t k = 0;
    while (k < words.size() && ++point[k] == words[k].posterior.size()) {
      point[k++] = 0;
    }
    if (k == words.size()) break;
  }
  double mean = 0.0;
  for (const auto& [p, x] : outcomes) mean += p * x;
  double variance = 0.0;
  for (const auto& [p, x] : outcomes) variance += p * (x - mean) * (x - mean);
  return Moments{mean, std::sqrt(variance)};
}

class ExactMomentsTest : public ::testing::Test {
 protected:
  ExactMomentsTest()
      : sample_(MakeMixedEvidenceSample()),
        neighbour_(MakeNeighbour()),
        global_(summary::ContentSummary::AggregateCategory(
            {&sample_.summary, &neighbour_})) {
    ctx_.ranked_summaries = {&sample_.summary, &neighbour_};
    ctx_.global_summary = &global_;
    selection::PrepareContextForQuery(kQuery, ctx_);
    scorers_ = {&cori_, &bgloss_, &lm_};
  }

  static summary::ContentSummary MakeNeighbour() {
    summary::ContentSummary n;
    n.set_num_documents(20000);
    n.SetWord("present", summary::WordStats{4000, 5000});
    n.SetWord("missing", summary::WordStats{300, 450});
    return n;
  }

  // Mixed evidence, with the absent word — the most uncertain one —
  // occurring twice.
  inline static const selection::Query kQuery{
      {"present", "missing", "other", "missing"}};

  sampling::SampleResult sample_;
  summary::ContentSummary neighbour_;
  summary::ContentSummary global_;
  selection::ScoringContext ctx_;
  selection::CoriScorer cori_;
  selection::BglossScorer bgloss_;
  selection::LmScorer lm_;
  std::vector<const selection::ScoringFunction*> scorers_;
};

TEST_F(ExactMomentsTest, MatchExhaustiveEnumeration) {
  // A 16-point grid keeps the enumeration at 16³ combinations; the
  // moments must agree to rounding.
  AdaptiveOptions options;
  options.grid_points = 16;
  AdaptiveSummarySelector selector(options);
  for (const selection::ScoringFunction* scorer : scorers_) {
    util::Rng unused(0);
    const auto exact = selector.Evaluate(kQuery, sample_, *scorer, ctx_,
                                         unused);
    const Moments enumerated =
        EnumeratedMoments(kQuery, sample_, *scorer, ctx_, 16);
    ASSERT_GT(exact.stddev, 0.0) << scorer->name();
    EXPECT_NEAR(exact.mean, enumerated.mean, 1e-9 * enumerated.mean)
        << scorer->name();
    EXPECT_NEAR(exact.stddev, enumerated.stddev, 1e-9 * enumerated.stddev)
        << scorer->name();
  }
}

TEST_F(ExactMomentsTest, MatchMonteCarloOracle) {
  // N = 20,000 draws on the serving grid. The oracle's mean has standard
  // error σ/√N, so the exact mean must lie within 4 of them. A sample
  // standard deviation has relative standard error √((κ − 1) / 4N) for
  // kurtosis κ: CORI's and LM's scores here have κ ≈ 11 and 7, so 4 of
  // those stay under 4.5% and the bound is 5%. bGlOSS multiplies the
  // absent word's heavy-tailed p̂ in twice (κ ≈ 8e5): its sample standard
  // deviation is off by tens of percent at any practical N, so its
  // standard deviation is pinned by the enumeration above instead.
  constexpr size_t kDraws = 20000;
  AdaptiveSummarySelector selector;
  for (const selection::ScoringFunction* scorer : scorers_) {
    util::Rng unused(0);
    const auto exact = selector.Evaluate(kQuery, sample_, *scorer, ctx_,
                                         unused);
    const Moments oracle =
        MonteCarloOracle(kQuery, sample_, *scorer, ctx_, kDraws, 5);
    ASSERT_GT(exact.stddev, 0.0) << scorer->name();
    EXPECT_NEAR(exact.mean, oracle.mean,
                4.0 * exact.stddev / std::sqrt(static_cast<double>(kDraws)))
        << scorer->name();
    if (scorer != &bgloss_) {
      EXPECT_NEAR(exact.stddev, oracle.stddev, 0.05 * exact.stddev)
          << scorer->name();
    }
  }
}

TEST_F(ExactMomentsTest, DuplicatedWordScoresAsItsSingleOccurrence) {
  // CORI averages over occurrences, so q = [w w] has exactly the score
  // distribution of q = [w]: the sum doubles, the 1/|q| slope halves it.
  AdaptiveOptions options;
  options.require_mixed_evidence = false;  // single-word query variants
  AdaptiveSummarySelector selector(options);
  selection::CoriScorer cori;
  util::Rng rng(13);
  const auto dup = selector.Evaluate(selection::Query{{"present", "present"}},
                                     sample_, cori, ctx_, rng);
  const auto single = selector.Evaluate(selection::Query{{"present"}},
                                        sample_, cori, ctx_, rng);
  EXPECT_GT(single.stddev, 0.0);
  EXPECT_EQ(dup.mean, single.mean);
  EXPECT_EQ(dup.stddev, single.stddev);
}

TEST_F(ExactMomentsTest, DuplicateTermsBuildOnePosteriorPerDistinctWord) {
  AdaptiveSummarySelector selector;
  selection::CoriScorer cori;
  PosteriorCache cache(1);
  util::Rng rng(17);
  selector.Evaluate(kQuery, sample_, cori, ctx_, rng, &cache, 0);
  // Four occurrences, three distinct words -> exactly three grid builds.
  EXPECT_EQ(cache.stats().misses, 3u);
}

// Product of the per-term E[X_k²] over the query's words, multiplied in
// linear space — the quantity a naive exact computation would form.
double LinearSecondMomentProduct(const selection::Query& query,
                                 const sampling::SampleResult& s,
                                 const selection::ScoringFunction& scorer,
                                 const selection::ScoringContext& ctx) {
  const double gamma = PowerLawGamma(s.mandelbrot_alpha);
  double product = 1.0;
  for (size_t t = 0; t < query.terms.size(); ++t) {
    auto it = s.sample_df.find(query.terms[t]);
    const size_t sk = it != s.sample_df.end() ? it->second : 0;
    const DocFrequencyPosterior post(sk, s.sample_size, s.estimated_db_size,
                                     gamma, AdaptiveOptions().grid_points);
    std::vector<double> row(post.size());
    scorer.TermContributionTable(query, t, s.summary,
                                 s.summary.Stats(query.terms[t]), ctx,
                                 post.support().data(), post.size(),
                                 row.data());
    double total = 0.0;
    double second = 0.0;
    for (size_t i = 0; i < post.size(); ++i) {
      total += post.weights()[i];
      second += post.weights()[i] * row[i] * row[i];
    }
    product *= second / total;
  }
  return product;
}

TEST(AdaptiveSelectorTest, LongProductQueryMomentsStayFinite) {
  // One present and 30 absent words over a ten-million-document database
  // with 25 tokens per document: every absent word's factor is ~1e-7, so
  // Π E[X²] underflows in linear space while the score itself does not.
  sampling::SampleResult s = MakeSample(1e7, 300);
  s.summary.SetWord("present", summary::WordStats{1e6, 2.5e8});
  s.sample_df["present"] = 30;
  selection::Query query{{"present"}};
  for (int i = 0; i < 30; ++i) {
    query.terms.push_back("absent" + std::to_string(i));
  }
  const selection::BglossScorer bgloss;
  const selection::LmScorer lm;
  const selection::ScoringFunction* scorers[] = {&bgloss, &lm};
  AdaptiveSummarySelector selector;
  selection::ScoringContext ctx;  // LM without global smoothing
  selection::PrepareContextForQuery(query, ctx);
  for (const selection::ScoringFunction* scorer : scorers) {
    ASSERT_EQ(LinearSecondMomentProduct(query, s, *scorer, ctx), 0.0)
        << scorer->name();
    util::Rng rng(21);
    const auto u = selector.Evaluate(query, s, *scorer, ctx, rng);
    EXPECT_TRUE(std::isfinite(u.mean)) << scorer->name();
    EXPECT_TRUE(std::isfinite(u.stddev)) << scorer->name();
    EXPECT_GT(u.mean, 0.0) << scorer->name();
    EXPECT_GT(u.stddev, 0.0) << scorer->name();
  }
}

// ------------------------------------------------------ deadline skipping --

TEST(AdaptiveSelectorTest, ExpiredDeadlineSkipIsCountedAsDisposition) {
  const sampling::SampleResult s = MakeMixedEvidenceSample();
  AdaptiveSummarySelector selector;
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(19);
  util::Counter& evals = util::GlobalMetrics().counter("adaptive.evaluations");
  util::Counter& skipped =
      util::GlobalMetrics().counter("adaptive.deadline_skipped");
  util::Counter& shrunk =
      util::GlobalMetrics().counter("adaptive.chose_shrunk");
  util::Counter& plain = util::GlobalMetrics().counter("adaptive.chose_plain");
  const uint64_t evals0 = evals.value();
  const uint64_t skipped0 = skipped.value();
  const uint64_t decided0 = shrunk.value() + plain.value();
  PosteriorCache cache(1);
  util::Deadline expired(0.0);  // born expired: zero budget
  const auto u =
      selector.Evaluate(selection::Query{{"present", "missing"}}, s, bgloss,
                        ctx, rng, &cache, 0, /*epoch=*/0, &expired);
  EXPECT_FALSE(u.use_shrinkage);
  EXPECT_EQ(u.mean, 0.0);
  EXPECT_EQ(u.stddev, 0.0);
  EXPECT_EQ(evals.value() - evals0, 1u);
  EXPECT_EQ(skipped.value() - skipped0, 1u);
  // The skip IS the disposition: chose_* stay untouched, preserving
  // chose_shrunk + chose_plain + deadline_skipped == evaluations.
  EXPECT_EQ(shrunk.value() + plain.value(), decided0);
  EXPECT_EQ(cache.stats().misses + cache.stats().hits, 0u);
}

// --------------------------------------------------- zero-excess sentinel --

// Scores above DefaultScore never (mean - default <= 0): the always-shrink
// limit of the decision rule. Every term contributes 0 to a constant fold
// seed, so the score is 0.25 at every grid point.
class FloorHuggingScorer : public selection::ScoringFunction {
 public:
  std::string_view name() const override { return "floor-hugging"; }
  double ScoreFromStats(const selection::Query&, const summary::SummaryView&,
                        std::span<const summary::WordStats>,
                        const selection::ScoringContext&) const override {
    return 0.25;
  }
  double DefaultScore(const selection::Query&, const summary::SummaryView&,
                      const selection::ScoringContext&) const override {
    return 0.5;
  }
  selection::TermCombine term_combine() const override {
    return selection::TermCombine::kSum;
  }
  double CombineInit(const selection::Query&, const summary::SummaryView&,
                     const selection::ScoringContext&) const override {
    return 0.25;
  }
  void TermContributionTable(const selection::Query&, size_t,
                             const summary::SummaryView&,
                             const summary::WordStats&,
                             const selection::ScoringContext&, const double*,
                             size_t count, double* out) const override {
    std::fill(out, out + count, 0.0);
  }
};

TEST(AdaptiveSelectorTest, ZeroExcessRecordsClampSentinelInRatioHistogram) {
  sampling::SampleResult s = MakeSample(50000, 300);
  s.summary.SetWord("w", summary::WordStats{300, 400});
  s.sample_df["w"] = 2;
  AdaptiveOptions options;
  options.require_mixed_evidence = false;
  AdaptiveSummarySelector selector(options);
  FloorHuggingScorer scorer;
  selection::ScoringContext ctx;
  util::Rng rng(23);
  util::Histogram& ratio =
      util::GlobalMetrics().histogram("adaptive.sigma_mu_ratio_e3");
  const uint64_t count0 = ratio.count();
  const auto u =
      selector.Evaluate(selection::Query{{"w"}}, s, scorer, ctx, rng);
  // mean (0.25) is below the default score (0.5): excess is clamped to 0
  // and any spread wins, i.e. shrinkage — but with zero stddev the rule
  // needs strict inequality, so the decision is "plain" while the ratio
  // histogram still records the 1e6-ratio sentinel (in milli-units).
  EXPECT_EQ(u.mean, 0.25);
  EXPECT_EQ(u.stddev, 0.0);
  EXPECT_EQ(ratio.count() - count0, 1u);
  EXPECT_EQ(ratio.max(), static_cast<uint64_t>(1e6 * 1e3));
  EXPECT_FALSE(u.use_shrinkage);  // stddev == 0 beats nothing
}

}  // namespace
}  // namespace fedsearch::core

#include "fedsearch/core/adaptive.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "fedsearch/core/posterior_cache.h"
#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/util/deadline.h"
#include "fedsearch/util/metrics.h"

namespace fedsearch::core {
namespace {

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

// A scorer that sees the database only through ForEachWord vocabulary
// iteration (the way coverage-style scorers consume summaries). Used to pin
// the regression where OverrideSummary::ForEachWord leaked the unperturbed
// base statistics.
class VocabularyIteratingScorer : public selection::ScoringFunction {
 public:
  std::string_view name() const override { return "vocab-sum"; }
  double Score(const selection::Query& query, const summary::SummaryView& db,
               const selection::ScoringContext&) const override {
    double total = 0.0;
    db.ForEachWord(
        [&](const std::string& word, const summary::WordStats& stats) {
          for (const std::string& term : query.terms) {
            if (term == word) total += stats.df + stats.ctf;
          }
        });
    return total;
  }
  double DefaultScore(const selection::Query&, const summary::SummaryView&,
                      const selection::ScoringContext&) const override {
    return 0.0;
  }
};

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

TEST(OverrideSummaryTest, VocabularyIteratingScorerSeesPerturbedValues) {
  summary::ContentSummary base;
  base.set_num_documents(100);
  base.SetWord("w", summary::WordStats{10, 30});
  std::unordered_map<std::string, double> overrides = {{"w", 20.0}};
  OverrideSummary view(&base, &overrides);
  VocabularyIteratingScorer scorer;
  selection::ScoringContext ctx;
  const selection::Query query{{"w"}};
  // df 20 + ctf 60, not the base's df 10 + ctf 30.
  EXPECT_DOUBLE_EQ(scorer.Score(query, view, ctx), 80.0);
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

TEST(DocFrequencyPosteriorTest, SamplesStayInSupport) {
  DocFrequencyPosterior post(10, 100, 5000, -1.8, 64);
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double d = post.Sample(rng);
    EXPECT_GE(d, 1.0);
    EXPECT_LE(d, 5000.0);
  }
}

TEST(DocFrequencyPosteriorTest, SampleIndexMatchesDiscreteSamplerStream) {
  // The flat CDF + guide-table draw must replicate util::DiscreteSampler
  // bit-for-bit: same single NextDouble per draw, same index. This is the
  // contract that keeps the serial RNG-draw stream identical to the
  // sampler-based implementation.
  const DocFrequencyPosterior posts[] = {
      DocFrequencyPosterior(7, 200, 30000, -2.0, 64),
      DocFrequencyPosterior(0, 300, 100000, -2.0, 128),
      DocFrequencyPosterior(95, 100, 1000, -1.5, 64),
  };
  for (const DocFrequencyPosterior& post : posts) {
    util::DiscreteSampler sampler(post.weights());
    util::Rng a(42);
    util::Rng b(42);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(post.SampleIndex(a), sampler.Sample(b));
    }
    ASSERT_EQ(a.NextUint64(), b.NextUint64());  // streams stayed in step
  }
}

TEST(DocFrequencyPosteriorTest, SingleDocumentDatabaseEdgeGrid) {
  // |D| = 1 collapses the grid to the single point d = 1; every draw must
  // land there with a well-formed (finite, normalized) weight.
  const DocFrequencyPosterior post(/*sample_df=*/0, /*sample_size=*/10,
                                   /*db_size=*/1.0, -2.0, 64);
  ASSERT_EQ(post.support().size(), 1u);
  EXPECT_DOUBLE_EQ(post.support()[0], 1.0);
  ASSERT_EQ(post.weights().size(), 1u);
  EXPECT_TRUE(std::isfinite(post.weights()[0]));
  util::Rng rng(29);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(post.Sample(rng), 1.0);
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
  const auto u =
      selector.Evaluate(selection::Query{{"w"}}, s, bgloss, ctx, rng);
  EXPECT_FALSE(u.use_shrinkage);
  EXPECT_EQ(u.draws, 0u);
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
  const auto u = selector.Evaluate(selection::Query{{"other", "missing"}}, s,
                                   bgloss, ctx, rng);
  EXPECT_GT(u.draws, 0u);
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
  const auto u = selector.Evaluate(selection::Query{{"missing", "gone"}}, s,
                                   bgloss, ctx, rng);
  EXPECT_FALSE(u.use_shrinkage);
  EXPECT_EQ(u.draws, 0u);
}

TEST(AdaptiveSelectorTest, GateCanBeDisabled) {
  sampling::SampleResult s = MakeSample(50000, 300);
  AdaptiveOptions options;
  options.require_mixed_evidence = false;
  AdaptiveSummarySelector selector(options);
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(2);
  const auto u = selector.Evaluate(selection::Query{{"missing"}}, s, bgloss,
                                   ctx, rng);
  EXPECT_GT(u.draws, 0u);
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
  // overwhelms the binomial likelihood and every Monte-Carlo draw lands on
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

// Scores every database identically at (numerically) zero — the regime
// where comparing the first convergence check against the 0.0 baseline
// initializers spuriously terminates the Monte-Carlo at min_draws.
class NearZeroScorer : public selection::ScoringFunction {
 public:
  std::string_view name() const override { return "near-zero"; }
  double Score(const selection::Query&, const summary::SummaryView&,
               const selection::ScoringContext&) const override {
    return 0.0;
  }
  double DefaultScore(const selection::Query&, const summary::SummaryView&,
                      const selection::ScoringContext&) const override {
    return -1.0;  // keep mean − default positive so the rule still runs
  }
};

TEST(AdaptiveSelectorTest, NearZeroMeanStillRunsFullCheckInterval) {
  sampling::SampleResult s = MakeSample(50000, 300);
  s.summary.SetWord("w", summary::WordStats{300, 400});
  s.sample_df["w"] = 2;
  AdaptiveOptions options;
  options.require_mixed_evidence = false;
  AdaptiveSummarySelector selector(options);
  NearZeroScorer scorer;
  selection::ScoringContext ctx;
  util::Rng rng(7);
  const auto u =
      selector.Evaluate(selection::Query{{"w"}}, s, scorer, ctx, rng);
  // The first check (at min_draws) may only seed the convergence
  // baselines; the earliest legitimate exit is one full check interval
  // later.
  EXPECT_GE(u.draws, options.min_draws + 50);
}

// CORI with the delta protocol switched off: Evaluate takes the legacy
// OverrideSummary fallback path while scoring identically, so comparing
// against the real CoriScorer pins fast-path-vs-fallback bit-identity.
class NonDeltaCori : public selection::CoriScorer {
 public:
  bool supports_delta_scoring() const override { return false; }
};

sampling::SampleResult MakeMixedEvidenceSample() {
  sampling::SampleResult s = MakeSample(50000, 300);
  s.summary.SetWord("present", summary::WordStats{5000, 6000});
  s.sample_df["present"] = 30;
  s.summary.SetWord("other", summary::WordStats{900, 1500});
  s.sample_df["other"] = 9;
  return s;
}

TEST(AdaptiveSelectorTest, DeltaPathBitIdenticalToFallbackPath) {
  const sampling::SampleResult s = MakeMixedEvidenceSample();
  AdaptiveSummarySelector selector;
  selection::CoriScorer delta;
  NonDeltaCori fallback;
  ASSERT_TRUE(delta.supports_delta_scoring());
  ASSERT_FALSE(fallback.supports_delta_scoring());
  selection::ScoringContext ctx;
  ctx.ranked_summaries = {&s.summary};
  const selection::Query query{{"present", "missing", "other"}};
  selection::PrepareContextForQuery(query, ctx);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng_fast(seed);
    util::Rng rng_slow(seed);
    const auto fast = selector.Evaluate(query, s, delta, ctx, rng_fast);
    const auto slow = selector.Evaluate(query, s, fallback, ctx, rng_slow);
    EXPECT_GT(fast.draws, 0u);
    EXPECT_EQ(fast.mean, slow.mean);
    EXPECT_EQ(fast.stddev, slow.stddev);
    EXPECT_EQ(fast.draws, slow.draws);
    EXPECT_EQ(fast.use_shrinkage, slow.use_shrinkage);
    // Both paths must also have consumed the identical RNG stream.
    EXPECT_EQ(rng_fast.NextUint64(), rng_slow.NextUint64());
  }
}

// ------------------------------------------------- duplicate query terms --

TEST(AdaptiveSelectorTest, DuplicateTermsConsumeOneDrawPerDistinctWord) {
  // A repeated query word denotes ONE latent document frequency: the RNG
  // stream (and thus every downstream draw) must be identical whether the
  // word appears once or twice.
  const sampling::SampleResult s = MakeMixedEvidenceSample();
  AdaptiveOptions options;
  options.min_draws = 60;
  options.max_draws = 60;  // fixed draw count -> comparable streams
  AdaptiveSummarySelector selector(options);
  selection::CoriScorer cori;
  selection::ScoringContext ctx;
  ctx.ranked_summaries = {&s.summary};
  selection::PrepareContextForQuery(selection::Query{{"present", "missing"}},
                                    ctx);
  util::Rng rng_dup(11);
  util::Rng rng_plain(11);
  const auto dup = selector.Evaluate(
      selection::Query{{"present", "missing", "present"}}, s, cori, ctx,
      rng_dup);
  const auto plain = selector.Evaluate(
      selection::Query{{"present", "missing"}}, s, cori, ctx, rng_plain);
  EXPECT_EQ(dup.draws, plain.draws);
  EXPECT_EQ(rng_dup.NextUint64(), rng_plain.NextUint64());
}

TEST(AdaptiveSelectorTest, DuplicatedWordScoresAsItsSingleOccurrence) {
  // CORI averages over occurrences, so q = [w w] must produce exactly the
  // per-draw scores of q = [w]: (c + c) / 2 == c in IEEE double.
  const sampling::SampleResult s = MakeMixedEvidenceSample();
  AdaptiveOptions options;
  options.require_mixed_evidence = false;  // single-word query variants
  options.min_draws = 60;
  options.max_draws = 60;
  AdaptiveSummarySelector selector(options);
  selection::CoriScorer cori;
  selection::ScoringContext ctx;
  ctx.ranked_summaries = {&s.summary};
  selection::PrepareContextForQuery(selection::Query{{"present"}}, ctx);
  util::Rng rng_dup(13);
  util::Rng rng_single(13);
  const auto dup = selector.Evaluate(selection::Query{{"present", "present"}},
                                     s, cori, ctx, rng_dup);
  const auto single =
      selector.Evaluate(selection::Query{{"present"}}, s, cori, ctx,
                        rng_single);
  EXPECT_EQ(dup.mean, single.mean);
  EXPECT_EQ(dup.stddev, single.stddev);
  EXPECT_EQ(rng_dup.NextUint64(), rng_single.NextUint64());
}

TEST(AdaptiveSelectorTest, DuplicateTermsBuildOnePosteriorPerDistinctWord) {
  const sampling::SampleResult s = MakeMixedEvidenceSample();
  AdaptiveSummarySelector selector;
  selection::CoriScorer cori;
  selection::ScoringContext ctx;
  ctx.ranked_summaries = {&s.summary};
  selection::PrepareContextForQuery(selection::Query{{"present", "missing"}},
                                    ctx);
  PosteriorCache cache(1);
  util::Rng rng(17);
  selector.Evaluate(selection::Query{{"present", "missing", "present"}}, s,
                    cori, ctx, rng, &cache, 0);
  // Three occurrences, two distinct words -> exactly two grid builds.
  EXPECT_EQ(cache.stats().misses, 2u);
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
  EXPECT_EQ(u.draws, 0u);
  EXPECT_EQ(evals.value() - evals0, 1u);
  EXPECT_EQ(skipped.value() - skipped0, 1u);
  // The skip IS the disposition: chose_* stay untouched, preserving
  // chose_shrunk + chose_plain + deadline_skipped == evaluations.
  EXPECT_EQ(shrunk.value() + plain.value(), decided0);
  EXPECT_EQ(cache.stats().misses + cache.stats().hits, 0u);
}

// --------------------------------------------------- zero-excess sentinel --

// Scores above DefaultScore never (mean - default <= 0): the always-shrink
// limit of the decision rule.
class FloorHuggingScorer : public selection::ScoringFunction {
 public:
  std::string_view name() const override { return "floor-hugging"; }
  double Score(const selection::Query&, const summary::SummaryView&,
               const selection::ScoringContext&) const override {
    return 0.25;
  }
  double DefaultScore(const selection::Query&, const summary::SummaryView&,
                      const selection::ScoringContext&) const override {
    return 0.5;
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
  EXPECT_EQ(ratio.count() - count0, 1u);
  EXPECT_EQ(ratio.max(), static_cast<uint64_t>(1e6 * 1e3));
  EXPECT_FALSE(u.use_shrinkage);  // stddev == 0 beats nothing
}

TEST(AdaptiveSelectorTest, DrawCountBounded) {
  sampling::SampleResult s = MakeSample(50000, 300);
  s.summary.SetWord("w", summary::WordStats{300, 400});
  s.sample_df["w"] = 2;
  AdaptiveOptions options;
  options.require_mixed_evidence = false;
  options.min_draws = 50;
  options.max_draws = 120;
  AdaptiveSummarySelector selector(options);
  selection::BglossScorer bgloss;
  selection::ScoringContext ctx;
  util::Rng rng(5);
  const auto u =
      selector.Evaluate(selection::Query{{"w"}}, s, bgloss, ctx, rng);
  EXPECT_GE(u.draws, 50u);
  EXPECT_LE(u.draws, 120u);
}

}  // namespace
}  // namespace fedsearch::core

#include <cmath>
#include <unordered_map>

#include <gtest/gtest.h>

#include "fedsearch/core/adaptive.h"
#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/lm.h"

namespace fedsearch::selection {
namespace {

summary::ContentSummary MakeSummary(double num_docs,
                                    std::vector<std::tuple<std::string, double,
                                                           double>> words) {
  summary::ContentSummary s;
  s.set_num_documents(num_docs);
  for (const auto& [w, df, ctf] : words) {
    s.SetWord(w, summary::WordStats{df, ctf});
  }
  return s;
}

class ScorersTest : public ::testing::Test {
 protected:
  ScorersTest()
      : health_(MakeSummary(
            1000, {{"blood", 420, 700}, {"hypertension", 320, 500}})),
        cs_(MakeSummary(500, {{"algorithm", 300, 900}, {"blood", 1, 1}})),
        global_(summary::ContentSummary::AggregateCategory({&health_, &cs_})) {
    context_.ranked_summaries = {&health_, &cs_};
    context_.global_summary = &global_;
    // Every term the tests below score (CORI reads cf(w) from the fill).
    PrepareContextForQuery(
        Query{{"algorithm", "blood", "hypertension", "nonexistent"}},
        context_);
  }

  summary::ContentSummary health_;
  summary::ContentSummary cs_;
  summary::ContentSummary global_;
  ScoringContext context_;
};

// ---------------------------------------------------------------- bGlOSS --

TEST_F(ScorersTest, BglossMatchesClosedForm) {
  // s(q, D) = |D| · Π p̂(w|D)  [13].
  BglossScorer bgloss;
  const Query q{{"blood", "hypertension"}};
  EXPECT_NEAR(bgloss.Score(q, health_, context_), 1000 * 0.42 * 0.32, 1e-9);
}

TEST_F(ScorersTest, BglossZeroOnAnyMissingWord) {
  BglossScorer bgloss;
  EXPECT_EQ(bgloss.Score(Query{{"algorithm", "hypertension"}}, health_,
                         context_),
            0.0);
  EXPECT_EQ(bgloss.DefaultScore(Query{{"x"}}, health_, context_), 0.0);
}

TEST_F(ScorersTest, BglossPrefersTopicalDatabase) {
  // The Example 2 scenario: [blood hypertension] should prefer the Health
  // database over the CS one.
  BglossScorer bgloss;
  const Query q{{"blood", "hypertension"}};
  EXPECT_GT(bgloss.Score(q, health_, context_),
            bgloss.Score(q, cs_, context_));
}

// ------------------------------------------------------------------ CORI --

TEST_F(ScorersTest, CoriMatchesClosedForm) {
  CoriScorer cori;
  const Query q{{"algorithm"}};
  // df for "algorithm" in cs_: 300. cw = 901 tokens, mcw = (1200+901)/2.
  const double m = 2.0;
  const double cw = 901.0;
  const double mcw = (1200.0 + 901.0) / 2.0;
  const double t = 300.0 / (300.0 + 50.0 + 150.0 * cw / mcw);
  const double cf = 1.0;  // only cs_ contains "algorithm"
  const double i = std::log((m + 0.5) / cf) / std::log(m + 1.0);
  EXPECT_NEAR(cori.Score(q, cs_, context_), 0.4 + 0.6 * t * i, 1e-9);
}

TEST_F(ScorersTest, CoriDefaultBeliefForMissingWords) {
  CoriScorer cori;
  const Query q{{"nonexistent"}};
  EXPECT_NEAR(cori.Score(q, health_, context_), 0.4, 1e-12);
  EXPECT_NEAR(cori.DefaultScore(q, health_, context_), 0.4, 1e-12);
}

TEST_F(ScorersTest, CoriRoundedPresenceRule) {
  // Section 5.3: a word counts as present only if round(|D|·p̂) >= 1 —
  // the guard that keeps shrunk summaries from saturating cf(w).
  CoriScorer cori;
  summary::ContentSummary shrunk = MakeSummary(1000, {{"ghost", 0.4, 1.0}});
  ScoringContext ctx;
  ctx.ranked_summaries = {&shrunk};
  const Query q{{"ghost"}};
  PrepareContextForQuery(q, ctx);
  EXPECT_NEAR(cori.Score(q, shrunk, ctx), 0.4, 1e-12);  // treated as absent
}

TEST_F(ScorersTest, CoriRareWordsWeighMore) {
  // I (the idf-like factor) favors words in fewer databases.
  CoriScorer cori;
  // "hypertension" occurs only in health_, "blood" in both (df 1 in cs_
  // rounds to 1, so cf = 2).
  const double s_rare = cori.Score(Query{{"hypertension"}}, health_, context_);
  const double s_common = cori.Score(Query{{"blood"}}, health_, context_);
  EXPECT_GT(s_rare, s_common);
}

TEST_F(ScorersTest, CoriAveragesOverQueryWords) {
  CoriScorer cori;
  const double one = cori.Score(Query{{"hypertension"}}, health_, context_);
  const double with_miss =
      cori.Score(Query{{"hypertension", "nonexistent"}}, health_, context_);
  EXPECT_NEAR(with_miss, (one + 0.4) / 2.0, 1e-9);
}

// -------------------------------------------------------------------- LM --

TEST_F(ScorersTest, LmMatchesClosedForm) {
  LmScorer lm(0.5);
  const Query q{{"blood"}};
  const double p_db = health_.ProbToken("blood");
  const double p_g = global_.ProbToken("blood");
  EXPECT_NEAR(lm.Score(q, health_, context_), 0.5 * p_db + 0.5 * p_g, 1e-12);
}

TEST_F(ScorersTest, LmSmoothsMissingWordsWithGlobal) {
  LmScorer lm(0.5);
  const Query q{{"algorithm"}};  // absent from health_
  const double expected = 0.5 * global_.ProbToken("algorithm");
  EXPECT_NEAR(lm.Score(q, health_, context_), expected, 1e-12);
  EXPECT_NEAR(lm.DefaultScore(q, health_, context_), expected, 1e-12);
}

TEST_F(ScorersTest, LmMultiWordProduct) {
  LmScorer lm(0.5);
  const Query q{{"blood", "hypertension"}};
  const double w1 = lm.Score(Query{{"blood"}}, health_, context_);
  const double w2 = lm.Score(Query{{"hypertension"}}, health_, context_);
  EXPECT_NEAR(lm.Score(q, health_, context_), w1 * w2, 1e-15);
}

TEST_F(ScorersTest, LmWithoutGlobalSummary) {
  LmScorer lm(0.5);
  ScoringContext ctx;  // no global
  const Query q{{"blood"}};
  EXPECT_NEAR(lm.Score(q, health_, ctx), 0.5 * health_.ProbToken("blood"),
              1e-12);
  EXPECT_EQ(lm.DefaultScore(q, health_, ctx), 0.0);
}

// -------------------------------------------------------- delta protocol --
//
// The adaptive score moments (core/adaptive.cc) rest on the contracts
// declared in scoring.h — three bit identities and an affine
// FinalizeScore; these tests pin them for every paper scorer.

class DeltaProtocolTest : public ScorersTest {
 protected:
  DeltaProtocolTest() {
    scorers_ = {&cori_scorer_, &lm_scorer_, &bgloss_scorer_};
  }

  CoriScorer cori_scorer_;
  LmScorer lm_scorer_{0.5};
  BglossScorer bgloss_scorer_;
  std::vector<const ScoringFunction*> scorers_;
};

TEST_F(DeltaProtocolTest, FoldMatchesScoreBitwise) {
  // Score(q, D, ctx) == FinalizeScore over the CombineInit/TermContribution
  // fold, bit for bit — including missing words and the empty query.
  const Query queries[] = {Query{{"blood", "hypertension"}},
                           Query{{"algorithm", "blood", "nonexistent"}},
                           Query{{"nonexistent"}},
                           Query{}};
  const summary::SummaryView* dbs[] = {&health_, &cs_};
  for (const ScoringFunction* s : scorers_) {
    ASSERT_TRUE(s->supports_delta_scoring()) << s->name();
    for (const Query& q : queries) {
      for (const summary::SummaryView* db : dbs) {
        double combined = s->CombineInit(q, *db, context_);
        for (size_t i = 0; i < q.terms.size(); ++i) {
          const double c = s->TermContribution(q, i, *db, context_);
          combined = s->term_combine() == TermCombine::kSum ? combined + c
                                                             : combined * c;
        }
        const double folded = s->FinalizeScore(q, combined);
        EXPECT_EQ(folded, s->Score(q, *db, context_)) << s->name();
      }
    }
  }
}

TEST_F(DeltaProtocolTest, FinalizeScoreIsAffine) {
  // The adaptive selector maps the mean of the combined score through
  // FinalizeScore and scales its standard deviation by the slope
  // FinalizeScore(q, 1) − FinalizeScore(q, 0); both are exact only for an
  // affine FinalizeScore.
  const Query queries[] = {Query{{"blood"}},
                           Query{{"algorithm", "blood", "nonexistent"}},
                           Query{}};
  const double points[] = {-3.5, 0.0, 0.25, 1.0, 2.0, 17.0, 1e6};
  for (const ScoringFunction* s : scorers_) {
    for (const Query& q : queries) {
      const double at_zero = s->FinalizeScore(q, 0.0);
      const double slope = s->FinalizeScore(q, 1.0) - at_zero;
      for (const double x : points) {
        EXPECT_DOUBLE_EQ(s->FinalizeScore(q, x), at_zero + slope * x)
            << s->name() << " |q| " << q.terms.size() << " x " << x;
      }
    }
  }
}

TEST_F(DeltaProtocolTest, ContributionTableMatchesPerPointBitwise) {
  // The bulk tabulation (the hoisted loops of cori/lm/bgloss.cc) must
  // reproduce the per-point TermContributionWithDf values exactly; df
  // points cover absent (0), sub-presence (0.4, rounds to absent), small,
  // fractional, large, and the full database size.
  const Query q{{"blood", "hypertension", "nonexistent"}};
  const double dfs[] = {0.0, 0.4, 1.0, 3.7, 320.0, 999.0, 1000.0};
  const size_t count = sizeof(dfs) / sizeof(dfs[0]);
  for (const ScoringFunction* s : scorers_) {
    for (size_t t = 0; t < q.terms.size(); ++t) {
      double table[count];
      s->TermContributionTable(q, t, health_, context_, dfs, count, table);
      for (size_t g = 0; g < count; ++g) {
        EXPECT_EQ(table[g],
                  s->TermContributionWithDf(q, t, dfs[g], health_, context_))
            << s->name() << " term " << t << " df " << dfs[g];
      }
    }
  }
}

TEST_F(DeltaProtocolTest, WithDfMatchesOverrideSummaryBitwise) {
  // TermContributionWithDf must equal TermContribution read through
  // core::OverrideSummary — the reference counterfactual view — so a grid
  // point scores exactly as the summary with that df would. "blood"
  // exercises the seen-word token-scaling rule, "nonexistent" the
  // unseen-word rule.
  const Query q{{"blood", "nonexistent"}};
  const double df_points[] = {0.0, 0.4, 3.7, 420.0, 2000.0};
  for (const ScoringFunction* s : scorers_) {
    for (size_t t = 0; t < q.terms.size(); ++t) {
      for (const double d : df_points) {
        std::unordered_map<std::string, double> overrides = {{q.terms[t], d}};
        core::OverrideSummary perturbed(&health_, &overrides);
        EXPECT_EQ(s->TermContributionWithDf(q, t, d, health_, context_),
                  s->TermContribution(q, t, perturbed, context_))
            << s->name() << " term " << q.terms[t] << " df " << d;
      }
    }
  }
}

}  // namespace
}  // namespace fedsearch::selection

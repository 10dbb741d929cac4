#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/lm.h"
#include "testing/override_summary.h"

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
  }

  // The fixture's context, with every statistic filled for `query`: a
  // context serves only the query it was prepared for.
  const ScoringContext& PreparedFor(const Query& query) {
    PrepareContextForQuery(query, context_);
    return context_;
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
  EXPECT_NEAR(bgloss.Score(q, health_, PreparedFor(q)), 1000 * 0.42 * 0.32,
              1e-9);
}

TEST_F(ScorersTest, BglossZeroOnAnyMissingWord) {
  BglossScorer bgloss;
  const Query q{{"algorithm", "hypertension"}};
  EXPECT_EQ(bgloss.Score(q, health_, PreparedFor(q)), 0.0);
  const Query x{{"x"}};
  EXPECT_EQ(bgloss.DefaultScore(x, health_, PreparedFor(x)), 0.0);
}

TEST_F(ScorersTest, BglossPrefersTopicalDatabase) {
  // The Example 2 scenario: [blood hypertension] should prefer the Health
  // database over the CS one.
  BglossScorer bgloss;
  const Query q{{"blood", "hypertension"}};
  EXPECT_GT(bgloss.Score(q, health_, PreparedFor(q)),
            bgloss.Score(q, cs_, PreparedFor(q)));
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
  EXPECT_NEAR(cori.Score(q, cs_, PreparedFor(q)), 0.4 + 0.6 * t * i, 1e-9);
}

TEST_F(ScorersTest, CoriDefaultBeliefForMissingWords) {
  CoriScorer cori;
  const Query q{{"nonexistent"}};
  EXPECT_NEAR(cori.Score(q, health_, PreparedFor(q)), 0.4, 1e-12);
  EXPECT_NEAR(cori.DefaultScore(q, health_, PreparedFor(q)), 0.4, 1e-12);
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
  const Query rare{{"hypertension"}};
  const Query common{{"blood"}};
  const double s_rare = cori.Score(rare, health_, PreparedFor(rare));
  const double s_common = cori.Score(common, health_, PreparedFor(common));
  EXPECT_GT(s_rare, s_common);
}

TEST_F(ScorersTest, CoriAveragesOverQueryWords) {
  CoriScorer cori;
  const Query single{{"hypertension"}};
  const Query with_nonexistent{{"hypertension", "nonexistent"}};
  const double one = cori.Score(single, health_, PreparedFor(single));
  const double with_miss =
      cori.Score(with_nonexistent, health_, PreparedFor(with_nonexistent));
  EXPECT_NEAR(with_miss, (one + 0.4) / 2.0, 1e-9);
}

// -------------------------------------------------------------------- LM --

TEST_F(ScorersTest, LmMatchesClosedForm) {
  LmScorer lm(0.5);
  const Query q{{"blood"}};
  const double p_db = health_.ProbToken("blood");
  const double p_g = global_.ProbToken("blood");
  EXPECT_NEAR(lm.Score(q, health_, PreparedFor(q)), 0.5 * p_db + 0.5 * p_g,
              1e-12);
}

TEST_F(ScorersTest, LmSmoothsMissingWordsWithGlobal) {
  LmScorer lm(0.5);
  const Query q{{"algorithm"}};  // absent from health_
  const double expected = 0.5 * global_.ProbToken("algorithm");
  EXPECT_NEAR(lm.Score(q, health_, PreparedFor(q)), expected, 1e-12);
  EXPECT_NEAR(lm.DefaultScore(q, health_, PreparedFor(q)), expected, 1e-12);
}

TEST_F(ScorersTest, LmMultiWordProduct) {
  LmScorer lm(0.5);
  const Query q{{"blood", "hypertension"}};
  const Query q1{{"blood"}};
  const Query q2{{"hypertension"}};
  const double w1 = lm.Score(q1, health_, PreparedFor(q1));
  const double w2 = lm.Score(q2, health_, PreparedFor(q2));
  EXPECT_NEAR(lm.Score(q, health_, PreparedFor(q)), w1 * w2, 1e-15);
}

TEST_F(ScorersTest, LmWithoutGlobalSummary) {
  LmScorer lm(0.5);
  ScoringContext ctx;  // no global
  const Query q{{"blood"}};
  lm.PrepareContext(q, ScoringStatisticsCache(), ctx);
  EXPECT_NEAR(lm.Score(q, health_, ctx), 0.5 * health_.ProbToken("blood"),
              1e-12);
  EXPECT_EQ(lm.DefaultScore(q, health_, ctx), 0.0);
}

// --------------------------------------------------------- per-term form --
//
// The adaptive score moments (core/adaptive.cc) rest on the two contracts
// of scoring.h's per-term form — the table fold equals Score bit for bit,
// and FinalizeScore is affine; these tests pin them for every paper scorer.

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

TEST_F(DeltaProtocolTest, TableFoldMatchesScoreBitwise) {
  // Each query term is tabulated in one TermContributionTable call over
  // 0, 0.4 (rounds to absent), 1, 3.7, its own df, |D| and 2|D|. Column g
  // gives the k-th distinct term the df at (g + k) mod 7 — one df per
  // distinct term, shared by its repeats — and folding those values
  // through CombineInit and FinalizeScore must equal Score over a summary
  // holding the same dfs (testing::OverrideSummary), bit for bit. The
  // queries cover a seen, an unseen and a repeated word and the empty
  // query.
  constexpr size_t kPoints = 7;
  const Query queries[] = {Query{{"blood", "nonexistent", "blood"}},
                           Query{{"algorithm", "hypertension"}}, Query{}};
  const summary::SummaryView* dbs[] = {&health_, &cs_};
  for (const ScoringFunction* s : scorers_) {
    for (const summary::SummaryView* db : dbs) {
      const double n = db->num_documents();
      for (const Query& q : queries) {
        PreparedFor(q);
        const size_t terms = q.terms.size();
        std::vector<std::string> distinct;
        std::vector<size_t> slot(terms);
        std::vector<std::array<double, kPoints>> dfs(terms);
        std::vector<std::array<double, kPoints>> rows(terms);
        for (size_t i = 0; i < terms; ++i) {
          const std::string& w = q.terms[i];
          slot[i] = static_cast<size_t>(
              std::find(distinct.begin(), distinct.end(), w) -
              distinct.begin());
          if (slot[i] == distinct.size()) distinct.push_back(w);
          dfs[i] = {0.0, 0.4, 1.0, 3.7, db->DocFrequency(w), n, 2.0 * n};
          s->TermContributionTable(q, i, *db, context_, dfs[i].data(),
                                   kPoints, rows[i].data());
        }
        for (size_t g = 0; g < kPoints; ++g) {
          std::unordered_map<std::string, double> overrides;
          double combined = s->CombineInit(q, *db, context_);
          for (size_t i = 0; i < terms; ++i) {
            const size_t point = (g + slot[i]) % kPoints;
            overrides[q.terms[i]] = dfs[i][point];
            combined = s->term_combine() == TermCombine::kSum
                           ? combined + rows[i][point]
                           : combined * rows[i][point];
          }
          const testing::OverrideSummary perturbed(db, &overrides);
          EXPECT_EQ(s->FinalizeScore(q, combined),
                    s->Score(q, perturbed, context_))
              << s->name() << " |D| " << n << " |q| " << terms
              << " column " << g;
        }
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

}  // namespace
}  // namespace fedsearch::selection

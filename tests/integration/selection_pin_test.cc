// Selection pin: a compact fingerprint of every selection result over the
// small testbed. Each (federation, mode, scorer) cell hashes, per query,
// the full SelectionOutcome — ranked database ids, score bits,
// shrinkage_applied and category_fallbacks — and each (federation, scorer)
// cell hashes the hierarchical baseline's rankings. The constants were
// recorded before the corpus-statistics code was consolidated; any change
// to how cf(w), mean cw, the adaptive choice or the fallback is computed
// that moves a single score bit fails here. A refactor that is meant to
// keep selection bit-identical must pass this file unchanged.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fedsearch/core/metasearcher.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/lm.h"
#include "testing/small_testbed.h"

namespace fedsearch::core {
namespace {

using fedsearch::testing::SharedSmallTestbed;

// The database whose sample the degraded federation replaces with an
// empty one, so every mode runs the category-fallback path.
constexpr size_t kDegradedDatabase = 3;

// The samples parallel_determinism_test draws.
std::vector<sampling::SampleResult> CollectSamples(
    const corpus::Testbed& bed, std::vector<corpus::CategoryId>* classes) {
  sampling::QbsOptions options;
  options.target_documents = 80;
  sampling::QbsSampler sampler(
      options, corpus::BuildSamplerDictionary(bed.model(), 10));
  std::vector<sampling::SampleResult> samples;
  util::Rng rng(2024);
  for (size_t i = 0; i < bed.num_databases(); ++i) {
    util::Rng db_rng = rng.Fork();
    samples.push_back(sampler.Sample(bed.database(i), db_rng));
    classes->push_back(bed.category_of(i));
  }
  return samples;
}

// FNV-1a over the eight bytes of v.
uint64_t Mix(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

uint64_t MixRanking(uint64_t h,
                    const std::vector<selection::RankedDatabase>& ranking) {
  h = Mix(h, ranking.size());
  for (const selection::RankedDatabase& r : ranking) {
    h = Mix(h, r.database);
    h = Mix(h, Bits(r.score));
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

class SelectionPinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const corpus::Testbed& bed = SharedSmallTestbed();
    for (bool degrade : {false, true}) {
      std::vector<corpus::CategoryId> classes;
      std::vector<sampling::SampleResult> samples =
          CollectSamples(bed, &classes);
      if (degrade) samples[kDegradedDatabase] = sampling::SampleResult{};
      MetasearcherOptions options;
      options.num_threads = 1;
      (degrade ? degraded_ : healthy_) =
          new Metasearcher(&bed.hierarchy(), std::move(samples),
                           std::move(classes), options);
    }
    // The bed's queries, plus each one's first and second half: shorter
    // queries change which databases hold mixed evidence.
    for (const corpus::TestQuery& tq : bed.queries()) {
      const std::vector<std::string> terms = bed.analyzer().Analyze(tq.text);
      const size_t half = terms.size() / 2;
      queries_.push_back(selection::Query{terms});
      queries_.push_back(selection::Query{
          std::vector<std::string>(terms.begin(), terms.begin() + half)});
      queries_.push_back(selection::Query{
          std::vector<std::string>(terms.begin() + half, terms.end())});
    }
  }

  struct Tally {
    uint64_t hash = kFnvBasis;
    size_t shrinkage_applied = 0;
    size_t category_fallbacks = 0;
  };

  static Tally HashOutcomes(const Metasearcher& meta,
                            const selection::ScoringFunction& scorer,
                            SummaryMode mode) {
    Tally t;
    for (const selection::Query& q : queries_) {
      const Metasearcher::SelectionOutcome o =
          meta.SelectDatabases(q, scorer, mode);
      EXPECT_TRUE(o.status.ok());
      t.hash = MixRanking(t.hash, o.ranking);
      t.hash = Mix(t.hash, o.shrinkage_applied);
      t.hash = Mix(t.hash, o.category_fallbacks);
      t.shrinkage_applied += o.shrinkage_applied;
      t.category_fallbacks += o.category_fallbacks;
    }
    return t;
  }

  static uint64_t HashHierarchical(const Metasearcher& meta,
                                   const selection::ScoringFunction& scorer) {
    uint64_t h = kFnvBasis;
    for (const selection::Query& q : queries_) {
      h = MixRanking(h, meta.SelectHierarchical(q, scorer,
                                                meta.num_databases()));
    }
    return h;
  }

  static const selection::ScoringFunction& Scorer(size_t s) {
    static const selection::CoriScorer cori;
    static const selection::BglossScorer bgloss;
    static const selection::LmScorer lm;
    const selection::ScoringFunction* scorers[] = {&cori, &bgloss, &lm};
    return *scorers[s];
  }

  static Metasearcher* healthy_;
  static Metasearcher* degraded_;
  static std::vector<selection::Query> queries_;
};

Metasearcher* SelectionPinTest::healthy_ = nullptr;
Metasearcher* SelectionPinTest::degraded_ = nullptr;
std::vector<selection::Query> SelectionPinTest::queries_;

constexpr SummaryMode kModes[] = {SummaryMode::kPlain,
                                  SummaryMode::kAdaptiveShrinkage,
                                  SummaryMode::kUniversalShrinkage};
constexpr const char* kModeNames[] = {"plain", "adaptive", "universal"};
constexpr const char* kScorerNames[] = {"CORI", "bGlOSS", "LM"};

// kOutcomePins[federation][mode][scorer]; federation 0 is healthy, 1 has
// database kDegradedDatabase's sample emptied.
constexpr uint64_t kOutcomePins[2][3][3] = {
    {{0xa27075bd821a31b5ULL, 0x93636327dd3335b3ULL, 0xde7ec997e81d5ce3ULL},
     {0xe7ffc79237c3dc8cULL, 0x85f9edef617f9c43ULL, 0x8cc9c83534b77cacULL},
     {0x72c482215997b22cULL, 0x43edbe214fa51049ULL, 0xaf4dd8d4437f5fa9ULL}},
    {{0x4cee03584e498556ULL, 0x899a0a570d0407d3ULL, 0xe15a37e33aa462a0ULL},
     {0x9560703ec02356a8ULL, 0xebde7ed6220c16d2ULL, 0xc7f4a36d1568192aULL},
     {0x65afb0b7c449e5a4ULL, 0x1d61479196521facULL, 0x4186159ecb73f989ULL}},
};

// kHierarchicalPins[federation][scorer].
constexpr uint64_t kHierarchicalPins[2][3] = {
    {0xb239a96e4e734a99ULL, 0x726615c52611f333ULL, 0x484bd2be2bb0e54bULL},
    {0x48b53bd68e3b4b41ULL, 0x726615c52611f333ULL, 0xf284e792ae5d6792ULL},
};

TEST_F(SelectionPinTest, SelectDatabasesOutcomesArePinned) {
  for (size_t f = 0; f < 2; ++f) {
    const Metasearcher& meta = f == 0 ? *healthy_ : *degraded_;
    for (size_t m = 0; m < 3; ++m) {
      for (size_t s = 0; s < 3; ++s) {
        const Tally t = HashOutcomes(meta, Scorer(s), kModes[m]);
        EXPECT_EQ(t.hash, kOutcomePins[f][m][s])
            << (f == 0 ? "healthy" : "degraded") << " " << kModeNames[m]
            << "/" << kScorerNames[s] << ": 0x" << std::hex << t.hash;
        // The pin covers the paths it is meant to: fallbacks only in the
        // degraded federation, and adaptive mode choosing shrinkage for
        // some but not all databases.
        EXPECT_EQ(t.category_fallbacks, f == 0 ? 0u : queries_.size());
        if (kModes[m] == SummaryMode::kAdaptiveShrinkage) {
          EXPECT_GT(t.shrinkage_applied, 0u) << kScorerNames[s];
          EXPECT_LT(t.shrinkage_applied,
                    queries_.size() * meta.num_databases())
              << kScorerNames[s];
        }
      }
    }
  }
}

TEST_F(SelectionPinTest, HierarchicalRankingsArePinned) {
  for (size_t f = 0; f < 2; ++f) {
    const Metasearcher& meta = f == 0 ? *healthy_ : *degraded_;
    for (size_t s = 0; s < 3; ++s) {
      const uint64_t h = HashHierarchical(meta, Scorer(s));
      EXPECT_EQ(h, kHierarchicalPins[f][s])
          << (f == 0 ? "healthy" : "degraded") << " " << kScorerNames[s]
          << ": 0x" << std::hex << h;
    }
  }
}

}  // namespace
}  // namespace fedsearch::core

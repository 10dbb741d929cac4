#include "fedsearch/selection/flat_ranker.h"

#include <algorithm>
#include <cmath>

namespace fedsearch::selection {

std::vector<RankedDatabase> RankDatabases(
    const Query& query,
    const std::vector<const summary::SummaryView*>& summaries,
    const ScoringFunction& scorer, const ScoringContext& context,
    util::ThreadPool* pool) {
  const size_t n = summaries.size();
  std::vector<double> scores(n, 0.0);
  std::vector<double> fallbacks(n, 0.0);
  const auto score_one = [&](size_t i) {
    scores[i] = scorer.Score(query, *summaries[i], context);
    fallbacks[i] = scorer.DefaultScore(query, *summaries[i], context);
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, score_one);
  } else {
    for (size_t i = 0; i < n; ++i) score_one(i);
  }
  return RankScores(scores, fallbacks);
}

std::vector<RankedDatabase> RankScores(const std::vector<double>& scores,
                                       const std::vector<double>& defaults) {
  const size_t n = scores.size();
  std::vector<RankedDatabase> ranking;
  ranking.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // "Default" scores mean the summary contributed no query-specific
    // evidence; such databases are not selected.
    if (scores[i] <= defaults[i] * (1.0 + 1e-12) ||
        !std::isfinite(scores[i])) {
      continue;
    }
    ranking.push_back(RankedDatabase{i, scores[i]});
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const RankedDatabase& a, const RankedDatabase& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.database < b.database;
            });
  return ranking;
}

}  // namespace fedsearch::selection

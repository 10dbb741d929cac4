#ifndef FEDSEARCH_SELECTION_FLAT_RANKER_H_
#define FEDSEARCH_SELECTION_FLAT_RANKER_H_

#include <cstddef>
#include <vector>

#include "fedsearch/selection/scoring.h"
#include "fedsearch/util/thread_pool.h"

namespace fedsearch::selection {

// One entry of a database ranking.
struct RankedDatabase {
  size_t database = 0;  // index into the ranked summary list
  double score = 0.0;
};

// Scores every summary with `scorer` and returns them ordered by
// decreasing score (ties broken by ascending index for determinism).
// Databases whose score equals the scorer's default — i.e. databases for
// which the summary provides no query-specific evidence — are omitted, so
// the ranking may contain fewer databases than were given (Section 6.2).
//
// With a non-null `pool`, per-database scoring fans out over the pool's
// workers; the filter and sort still run on the caller in index order, so
// the ranking is bit-identical to the serial one (scorers are stateless
// and each database's score is written to its own slot).
std::vector<RankedDatabase> RankDatabases(
    const Query& query,
    const std::vector<const summary::SummaryView*>& summaries,
    const ScoringFunction& scorer, const ScoringContext& context,
    util::ThreadPool* pool = nullptr);

// The ranking step alone: databases 0..n−1 with scores[i] and default
// scores defaults[i], filtered and ordered as RankDatabases does (a score
// at or below its default, or not finite, drops the database; the rest go
// by decreasing score, ties by ascending index).
std::vector<RankedDatabase> RankScores(const std::vector<double>& scores,
                                       const std::vector<double>& defaults);

}  // namespace fedsearch::selection

#endif  // FEDSEARCH_SELECTION_FLAT_RANKER_H_

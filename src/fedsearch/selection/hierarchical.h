#ifndef FEDSEARCH_SELECTION_HIERARCHICAL_H_
#define FEDSEARCH_SELECTION_HIERARCHICAL_H_

#include <vector>

#include "fedsearch/corpus/topic_hierarchy.h"
#include "fedsearch/selection/flat_ranker.h"
#include "fedsearch/selection/scoring.h"
#include "fedsearch/summary/content_summary.h"

namespace fedsearch::selection {

// The hierarchical database selection algorithm of Ipeirotis & Gravano [17]
// (the QBS-Hierarchical / FPS-Hierarchical baseline of Section 6.2).
//
// Database content summaries are aggregated into category content summaries
// (Definition 3). To pick k databases for a query, the algorithm starts at
// the root and repeatedly commits to the child category with the highest
// base-algorithm score, descending until it can fill the budget with
// databases ranked flat within the chosen categories. Choices at each
// level are irreversible, which is the structural weakness shrinkage
// avoids (Section 6.2's "Shrinkage vs Hierarchical" discussion).
class HierarchicalSelector {
 public:
  // `hierarchy` must outlive the selector. `summaries[i]` is database i's
  // (unshrunk) content summary and `classifications[i]` its category;
  // `category_summaries[c]` is category c's aggregate over its whole
  // subtree (Definition 3; core::HierarchySummaries::aggregate(c) builds
  // them). All summaries must outlive the selector.
  HierarchicalSelector(
      const corpus::TopicHierarchy* hierarchy,
      std::vector<const summary::SummaryView*> summaries,
      const std::vector<corpus::CategoryId>& classifications,
      std::vector<const summary::SummaryView*> category_summaries);

  // Returns up to k databases for the query, most promising first.
  // `statistics` fills the corpus statistics over the database summaries:
  // a cache built over exactly `summaries`, or an empty one, which counts
  // them per query. Both fill the same values.
  std::vector<RankedDatabase> Select(
      const Query& query, size_t k, const ScoringFunction& scorer,
      const ScoringStatisticsCache& statistics) const;

 private:
  // Recursion of [17]: pick ranked databases under `node` up to `k`.
  void SelectUnder(const Query& query, corpus::CategoryId node, size_t k,
                   const ScoringFunction& scorer,
                   const ScoringContext& context,
                   std::vector<RankedDatabase>& out) const;

  const corpus::TopicHierarchy* hierarchy_;
  std::vector<const summary::SummaryView*> summaries_;
  // Aggregated category summary per node (over the node's whole subtree).
  std::vector<const summary::SummaryView*> category_summaries_;
  // Databases classified exactly at each node.
  std::vector<std::vector<size_t>> databases_at_;
  // Number of databases in each node's subtree.
  std::vector<size_t> subtree_database_count_;
};

}  // namespace fedsearch::selection

#endif  // FEDSEARCH_SELECTION_HIERARCHICAL_H_

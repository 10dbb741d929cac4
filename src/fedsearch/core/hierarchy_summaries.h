#ifndef FEDSEARCH_CORE_HIERARCHY_SUMMARIES_H_
#define FEDSEARCH_CORE_HIERARCHY_SUMMARIES_H_

#include <cstddef>
#include <vector>

#include "fedsearch/corpus/topic_hierarchy.h"
#include "fedsearch/summary/content_summary.h"

namespace fedsearch::core {

// Category content summaries (Definition 3) over a topic hierarchy.
//
// For every category C, aggregate(C) combines the approximate summaries of
// all databases classified in C's subtree, size-weighted per Equation 1.
// Shrinkage mixes a database D with path C1, ..., Cm over its chain
// aggregate(C1), ..., aggregate(Cm), S(D), taking each level exclusive of
// the next (core/shrinkage.h), so the mixture components of Definition 4
// draw on disjoint data.
class HierarchySummaries {
 public:
  // `hierarchy` and the summaries must outlive this object.
  // classifications[i] is the category of database i (any node, not
  // necessarily a leaf); aborts unless there is one per summary, each a
  // node of `hierarchy`.
  HierarchySummaries(
      const corpus::TopicHierarchy* hierarchy,
      std::vector<const summary::ContentSummary*> database_summaries,
      std::vector<corpus::CategoryId> classifications);

  const corpus::TopicHierarchy& hierarchy() const { return *hierarchy_; }

  // Aggregated summary of the subtree rooted at `category`.
  const summary::ContentSummary& aggregate(corpus::CategoryId category) const {
    return aggregates_[static_cast<size_t>(category)];
  }

  // The root aggregate doubles as the "global" category summary G used by
  // the LM selection algorithm (Section 5.3).
  const summary::ContentSummary& root_aggregate() const {
    return aggregates_[0];
  }

  // Uniform word probability of the dummy category C0: 1 / |V| over the
  // union vocabulary of all approximate summaries.
  double uniform_probability() const { return uniform_probability_; }

  size_t num_databases() const { return database_summaries_.size(); }
  const summary::ContentSummary& database_summary(size_t i) const {
    return *database_summaries_[i];
  }
  corpus::CategoryId classification(size_t i) const {
    return classifications_[i];
  }

 private:
  const corpus::TopicHierarchy* hierarchy_;
  std::vector<const summary::ContentSummary*> database_summaries_;
  std::vector<corpus::CategoryId> classifications_;
  std::vector<summary::ContentSummary> aggregates_;
  double uniform_probability_ = 0.0;
};

}  // namespace fedsearch::core

#endif  // FEDSEARCH_CORE_HIERARCHY_SUMMARIES_H_

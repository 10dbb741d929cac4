#include "fedsearch/core/hierarchy_summaries.h"

#include <utility>

#include "fedsearch/util/check.h"

namespace fedsearch::core {

HierarchySummaries::HierarchySummaries(
    const corpus::TopicHierarchy* hierarchy,
    std::vector<const summary::ContentSummary*> database_summaries,
    std::vector<corpus::CategoryId> classifications)
    : hierarchy_(hierarchy),
      database_summaries_(std::move(database_summaries)),
      classifications_(std::move(classifications)) {
  const size_t nodes = hierarchy_->size();
  aggregates_.resize(nodes);

  // Group databases by their classification node.
  FEDSEARCH_CHECK(classifications_.size() == database_summaries_.size())
      << " " << classifications_.size() << " classifications for "
      << database_summaries_.size() << " database summaries";
  std::vector<std::vector<const summary::ContentSummary*>> at_node(nodes);
  for (size_t i = 0; i < database_summaries_.size(); ++i) {
    const auto node = static_cast<size_t>(classifications_[i]);
    FEDSEARCH_CHECK(node < nodes)
        << " database " << i << " is classified as category "
        << classifications_[i] << ", not a node of the " << nodes
        << "-node hierarchy";
    at_node[node].push_back(database_summaries_[i]);
  }

  // Nodes are allocated parents-first, so a reverse pass visits children
  // before their parents; aggregate bottom-up.
  for (size_t n = nodes; n-- > 0;) {
    summary::ContentSummary agg =
        summary::ContentSummary::AggregateCategory(at_node[n]);
    for (corpus::CategoryId c :
         hierarchy_->node(static_cast<corpus::CategoryId>(n)).children) {
      const summary::ContentSummary& child =
          aggregates_[static_cast<size_t>(c)];
      child.ForEachWord(
          [&](const std::string& w, const summary::WordStats& stats) {
            agg.AddWord(w, stats);
          });
      agg.set_num_documents(agg.num_documents() + child.num_documents());
    }
    aggregates_[n] = std::move(agg);
  }

  const size_t vocab = aggregates_[0].vocabulary_size();
  uniform_probability_ = vocab > 0 ? 1.0 / static_cast<double>(vocab) : 0.0;
}

}  // namespace fedsearch::core

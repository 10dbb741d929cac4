#include "fedsearch/selection/hierarchical.h"

#include <algorithm>
#include <utility>

#include "fedsearch/selection/flat_ranker.h"
#include "fedsearch/util/check.h"

namespace fedsearch::selection {

HierarchicalSelector::HierarchicalSelector(
    const corpus::TopicHierarchy* hierarchy,
    std::vector<const summary::SummaryView*> summaries,
    const std::vector<corpus::CategoryId>& classifications,
    std::vector<const summary::SummaryView*> category_summaries)
    : hierarchy_(hierarchy),
      summaries_(std::move(summaries)),
      category_summaries_(std::move(category_summaries)) {
  const size_t nodes = hierarchy_->size();
  FEDSEARCH_CHECK(category_summaries_.size() == nodes)
      << " " << category_summaries_.size() << " category summaries for "
      << nodes << " categories";
  databases_at_.resize(nodes);
  subtree_database_count_.assign(nodes, 0);
  for (size_t i = 0; i < classifications.size(); ++i) {
    databases_at_[static_cast<size_t>(classifications[i])].push_back(i);
  }
  // Nodes are created parents-first, so a reverse scan counts leaves
  // before their parents.
  for (size_t n = nodes; n-- > 0;) {
    size_t count = databases_at_[n].size();
    for (corpus::CategoryId c :
         hierarchy_->node(static_cast<corpus::CategoryId>(n)).children) {
      count += subtree_database_count_[static_cast<size_t>(c)];
    }
    subtree_database_count_[n] = count;
  }
}

void HierarchicalSelector::SelectUnder(const Query& query,
                                       corpus::CategoryId node, size_t k,
                                       const ScoringFunction& scorer,
                                       const ScoringContext& context,
                                       std::vector<RankedDatabase>& out) const {
  if (k == 0) return;
  const auto& children = hierarchy_->node(node).children;

  // Rank this node's candidate units: child categories (by their category
  // summaries) and databases classified directly at this node.
  struct Unit {
    bool is_category;
    size_t id;  // child category id or database index
    double score;
  };
  std::vector<Unit> units;
  for (corpus::CategoryId c : children) {
    if (subtree_database_count_[static_cast<size_t>(c)] == 0) continue;
    const summary::SummaryView& cs =
        *category_summaries_[static_cast<size_t>(c)];
    const double score = scorer.Score(query, cs, context);
    const double fallback = scorer.DefaultScore(query, cs, context);
    if (score <= fallback * (1.0 + 1e-12)) continue;
    units.push_back(Unit{true, static_cast<size_t>(c), score});
  }
  for (size_t db : databases_at_[static_cast<size_t>(node)]) {
    const double score = scorer.Score(query, *summaries_[db], context);
    const double fallback =
        scorer.DefaultScore(query, *summaries_[db], context);
    if (score <= fallback * (1.0 + 1e-12)) continue;
    units.push_back(Unit{false, db, score});
  }
  std::sort(units.begin(), units.end(), [](const Unit& a, const Unit& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.is_category != b.is_category) return !a.is_category;
    return a.id < b.id;
  });

  // Irreversible commitment: take as much of the budget as each unit can
  // absorb, in score order.
  for (const Unit& u : units) {
    if (out.size() >= k) break;
    if (u.is_category) {
      SelectUnder(query, static_cast<corpus::CategoryId>(u.id),
                  k, scorer, context, out);
    } else {
      out.push_back(RankedDatabase{u.id, u.score});
    }
  }
}

std::vector<RankedDatabase> HierarchicalSelector::Select(
    const Query& query, size_t k, const ScoringFunction& scorer,
    const ScoringStatisticsCache& statistics) const {
  // Context for base scoring within the hierarchy: category and database
  // summaries compete locally; corpus statistics use all database summaries.
  ScoringContext context;
  context.ranked_summaries = summaries_;
  context.global_summary = category_summaries_[0];
  scorer.PrepareContext(query, statistics, context);

  std::vector<RankedDatabase> out;
  SelectUnder(query, hierarchy_->root(), k, scorer, context, out);
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace fedsearch::selection

#ifndef FEDSEARCH_CORE_SHRINKAGE_H_
#define FEDSEARCH_CORE_SHRINKAGE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fedsearch/core/hierarchy_summaries.h"
#include "fedsearch/corpus/topic_hierarchy.h"
#include "fedsearch/summary/content_summary.h"

namespace fedsearch::core {

// Parameters of the EM fit of Figure 2.
struct ShrinkageOptions {
  // Terminate when no λ changes by more than epsilon between iterations.
  double epsilon = 1e-6;
  size_t max_iterations = 500;
};

// A database's chain: the category aggregates of its path C1..Cm, root
// first, then its own sample summary S(D). Level i < m of the chain is
// chain[i] − chain[i + 1], clamped at zero in df, ctf, |C| and cw —
// Definition 4's overlap rule, "we subtract from S(Ci) all the data used
// to construct S(Ci+1)" — and level m is S(D) itself, so the mixture
// components draw on disjoint data. A word's levels come from one map
// probe per chain summary.
using SummaryChain = std::vector<const summary::ContentSummary*>;

// The shrunk content summary R(D) of Definition 4, as a lazy view:
//   p̂_R(w|D) = λ_0·p̂(w|C0) + Σ_{i=1..m} λ_i·p̂(w|Ci) + λ_{m+1}·p̂(w|D)
// where C0 is the uniform dummy category, C1..Cm the database's category
// path (root first), each taken exclusive of the next level's data, and D
// the database's own sample summary: the levels of its chain.
//
// Stats reports p̂_R scaled by the database's estimated size (df) and
// word count (ctf), so selection algorithms consume shrunk and unshrunk
// summaries through the same interface.
class ShrunkSummary : public summary::SummaryView {
 public:
  // lambdas[0] is the uniform category's weight and lambdas[i + 1] chain
  // level i's, so lambdas.back() is the database's own. Every summary of
  // the chain must outlive this object and stay unchanged while it lives.
  ShrunkSummary(SummaryChain chain, std::vector<double> lambdas,
                double uniform_probability);

  double num_documents() const override;
  double total_tokens() const override;
  // One probe per chain summary, then MixtureStats.
  summary::WordStats Stats(const std::string& word) const override;
  void ForEachWord(
      const std::function<void(const std::string&,
                               const summary::WordStats&)>& fn) const override;
  size_t vocabulary_size() const override;

  // Mixture weights, uniform first, database last (Table 2's layout).
  const std::vector<double>& lambdas() const { return lambdas_; }

  // p̂_R(w|D) itself (document-probability mixture).
  double MixtureProbDoc(const std::string& word) const;

  // The mixture kernel: a word's statistics in R(D) from its statistics in
  // each chain summary, levels[i] in chain summary i (root first, S(D)
  // last; zeros where the summary lacks the word). The document and token
  // mixtures are taken in one pass. Stats probes the chain and calls this;
  // the metasearcher's word rows call it with the statistics they hold, so
  // both paths produce the same doubles.
  summary::WordStats MixtureStats(
      std::span<const summary::WordStats> levels) const;

 private:
  // The document and token mixtures p̂_R(w|D), each clamped to 1.
  struct Mixture {
    double doc = 0.0;
    double token = 0.0;
  };
  Mixture MixtureProbabilities(
      std::span<const summary::WordStats> levels) const;
  // Calls fn(levels) with the word's statistics in each chain summary.
  template <typename Fn>
  auto WithLevels(const std::string& word, Fn&& fn) const;

  SummaryChain chain_;           // C1..Cm, then D
  std::vector<double> lambdas_;  // C0, C1..Cm, D
  double uniform_probability_;
  // Each chain level's |C| and cw, exclusive of the next level's.
  std::vector<double> level_documents_;
  std::vector<double> level_tokens_;
};

// Fits the category mixture weights λ0..λ_{m+1} for one database with the
// expectation-maximization procedure of Figure 2, over the levels of the
// database's chain (C1..Cm exclusive, then S(D) = chain.back()); the β
// sums run over the words of S(D), as in the paper.
//
// `sample_size` (|S|, the number of documents behind S(D)) enables the
// cross-validated EM of McCallum et al. [22], the paper's source for
// shrinkage: each word's β contribution is weighted by its sample document
// frequency (EM over word observations, as in [22]), and the database
// component's probability is the deleted estimate p̂(w|D) − 1/|S| (one
// sample occurrence removed). Without the deletion, EM run to convergence
// collapses to λ_database = 1, because S(D) is itself the empirical
// distribution of exactly the words the β sums range over. Pass 0 to run
// the uncorrected textbook iteration.
//
// Returns m + 2 weights ordered: uniform C0, C1..Cm, database.
std::vector<double> FitMixtureWeights(const SummaryChain& chain,
                                      double uniform_probability,
                                      size_t sample_size,
                                      const ShrinkageOptions& options = {});

// Shrinkage over a whole federation: builds category summaries, fits λ for
// every database, and exposes the shrunk summaries R(D). This is the
// "computed off-line ... when the sampling-based database content summaries
// are created" phase of Section 3.2.
class ShrinkageModel {
 public:
  // `hierarchy_summaries` must outlive the model. `sample_sizes[i]` is the
  // document-sample size |S| of database i, used for the cross-validated
  // EM (see FitMixtureWeights); pass an empty vector to disable deletion.
  ShrinkageModel(const HierarchySummaries* hierarchy_summaries,
                 std::vector<size_t> sample_sizes,
                 const ShrinkageOptions& options = {});

  size_t num_databases() const { return shrunk_.size(); }

  const ShrunkSummary& shrunk(size_t db_index) const {
    return *shrunk_[db_index];
  }

  // λ weights of database db_index: uniform, Root, ..., leaf, database.
  const std::vector<double>& lambdas(size_t db_index) const {
    return shrunk_[db_index]->lambdas();
  }

  // The category path C1..Cm (root-first) used for database db_index.
  const std::vector<corpus::CategoryId>& path(size_t db_index) const {
    return paths_[db_index];
  }

 private:
  const HierarchySummaries* summaries_;
  std::vector<std::unique_ptr<ShrunkSummary>> shrunk_;
  std::vector<std::vector<corpus::CategoryId>> paths_;
};

}  // namespace fedsearch::core

#endif  // FEDSEARCH_CORE_SHRINKAGE_H_

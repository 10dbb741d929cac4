#ifndef FEDSEARCH_SUMMARY_CONTENT_SUMMARY_H_
#define FEDSEARCH_SUMMARY_CONTENT_SUMMARY_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fedsearch/index/inverted_index.h"

namespace fedsearch::summary {

// Per-word statistics of a content summary. Values are *database-scaled
// estimates*: df estimates the number of documents of D containing the word
// (Definition 1/2), ctf estimates the total number of occurrences of the
// word in D (the term-frequency statistics the LM selection algorithm needs,
// Section 5.3). Estimates can be fractional (frequency estimation and
// shrinkage both produce non-integer values).
struct WordStats {
  double df = 0.0;
  double ctf = 0.0;
};

// Read-only interface over any content summary — concrete (sampled, true,
// category) or lazily-shrunk (core/shrinkage.h). Database selection
// algorithms are written against this interface so they run unchanged over
// unshrunk and shrunk summaries, as Section 4 requires.
class SummaryView {
 public:
  virtual ~SummaryView() = default;

  // Estimated number of documents |D| (or |C| for a category summary).
  virtual double num_documents() const = 0;

  // Estimated total term occurrences in D.
  virtual double total_tokens() const = 0;

  // The word's estimated document and collection term frequencies (zeros
  // if absent): the one per-word lookup every view implements.
  virtual WordStats Stats(const std::string& word) const = 0;

  // Estimated document frequency of `word` (0 if absent).
  double DocFrequency(const std::string& word) const {
    return Stats(word).df;
  }

  // Estimated collection term frequency of `word` (0 if absent).
  double TokenFrequency(const std::string& word) const {
    return Stats(word).ctf;
  }

  // Calls fn(word, stats) for every word with a non-zero estimate.
  virtual void ForEachWord(
      const std::function<void(const std::string&, const WordStats&)>& fn)
      const = 0;

  // Number of distinct words with non-zero estimates.
  virtual size_t vocabulary_size() const = 0;

  // p̂(w|D) of Definition 2: fraction of documents containing the word,
  // clamped to [0, 1].
  double ProbDoc(const std::string& word) const;

  // LM-style token probability p̂(w|D) = tf(w,D) / Σ tf (Section 5.3).
  double ProbToken(const std::string& word) const;

  // Whether the word "counts as present": round(|D|·p̂(w|D)) >= 1, the
  // trimming rule of Sections 5.3 and 6.1.
  bool ContainsRounded(const std::string& word) const;
};

// A concrete, materialized content summary backed by a hash map.
class ContentSummary : public SummaryView {
 public:
  ContentSummary() = default;

  double num_documents() const override { return num_documents_; }
  double total_tokens() const override { return total_tokens_; }
  WordStats Stats(const std::string& word) const override;
  void ForEachWord(
      const std::function<void(const std::string&, const WordStats&)>& fn)
      const override;
  size_t vocabulary_size() const override { return words_.size(); }

  void set_num_documents(double n) { num_documents_ = n; }

  // Sets the statistics of one word (replacing any previous values).
  void SetWord(const std::string& word, WordStats stats);

  // Accumulates statistics for one word (used by aggregation).
  void AddWord(const std::string& word, WordStats stats);

  // Direct access for tight loops.
  const std::unordered_map<std::string, WordStats>& words() const {
    return words_;
  }

  // Materializes any SummaryView into a concrete summary. If `trim` is set,
  // words failing the round(|D|·p̂) >= 1 rule are dropped — the evaluation
  // treatment of shrunk summaries in Section 6.1.
  static ContentSummary Materialize(const SummaryView& view, bool trim);

  // The "perfect" summary S(D) of Section 6.1, computed by examining every
  // document through the database's index.
  static ContentSummary FromIndex(const index::InvertedIndex& index);

  // Definition 3, Equation 1: category summary aggregating database
  // summaries weighted by their sizes. p̂(w|C) = Σ p̂(w|D)·|D| / Σ |D|,
  // which in absolute terms is summed df (and ctf) over summed |D|.
  static ContentSummary AggregateCategory(
      const std::vector<const ContentSummary*>& database_summaries);

 private:
  double num_documents_ = 0.0;
  double total_tokens_ = 0.0;
  std::unordered_map<std::string, WordStats> words_;
};

}  // namespace fedsearch::summary

#endif  // FEDSEARCH_SUMMARY_CONTENT_SUMMARY_H_

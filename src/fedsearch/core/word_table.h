#ifndef FEDSEARCH_CORE_WORD_TABLE_H_
#define FEDSEARCH_CORE_WORD_TABLE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "fedsearch/core/hierarchy_summaries.h"
#include "fedsearch/corpus/topic_hierarchy.h"
#include "fedsearch/sampling/sample_result.h"
#include "fedsearch/summary/content_summary.h"
#include "fedsearch/util/check.h"
#include "fedsearch/util/mutex.h"
#include "fedsearch/util/thread_annotations.h"
#include "fedsearch/util/trace.h"

namespace fedsearch::core {

// One word's non-zero statistics across a snapshot: for every database
// whose sample summary S(D) holds the word, its statistics there and its
// sample document frequency s_k; for every category whose aggregate holds
// the word, its statistics there. What a row lacks reads as zeros, which
// is what a probe of a summary without the word returns. Immutable once
// built; one allocation holds two bitmaps (databases, categories) and the
// entries they index, packed in index order.
class WordRow {
 public:
  struct DatabaseEntry {
    summary::WordStats stats;  // in S(D)
    size_t sample_df = 0;      // s_k
  };

  // Calls fn(i, entry) for every database i whose S(D) holds the word, in
  // index order.
  template <typename Fn>
  void ForEachDatabase(Fn&& fn) const {
    const DatabaseEntry* entry = database_entries();
    for (size_t w = 0; w < database_words_; ++w) {
      for (uint64_t bits = block_words()[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)), *entry++);
      }
    }
  }

  // The word's statistics in category `c`'s aggregate.
  summary::WordStats category(corpus::CategoryId c) const {
    const auto i = static_cast<size_t>(c);
    FEDSEARCH_DCHECK(i < category_words_ * size_t{64});
    const uint64_t* bits = block_words() + database_words_;
    const uint64_t below = (uint64_t{1} << (i % 64)) - 1;
    if (((bits[i / 64] >> (i % 64)) & 1) == 0) return summary::WordStats{};
    // The entry's index is the number of set bits below i.
    size_t rank = std::popcount(bits[i / 64] & below);
    for (size_t w = 0; w < i / 64; ++w) rank += std::popcount(bits[w]);
    return category_entries()[rank];
  }

 private:
  friend class WordTable;

  // A row with room for `databases` and `categories` entries and bitmaps
  // of the given numbers of 64-bit words, all bits clear.
  WordRow(size_t database_words, size_t category_words, size_t databases,
          size_t categories);

  // The block holds the database bitmap, the category bitmap, the database
  // entries and the category entries, in that order.
  uint64_t* block_words() const {
    return std::launder(reinterpret_cast<uint64_t*>(block_.get()));
  }
  DatabaseEntry* database_entries() const {
    return std::launder(reinterpret_cast<DatabaseEntry*>(
        block_.get() +
        (database_words_ + category_words_) * sizeof(uint64_t)));
  }
  summary::WordStats* category_entries() const {
    return std::launder(reinterpret_cast<summary::WordStats*>(
        reinterpret_cast<std::byte*>(database_entries() + databases_)));
  }

  std::unique_ptr<std::byte[]> block_;
  uint32_t database_words_ = 0;  // 64-bit words per bitmap
  uint32_t category_words_ = 0;
  uint32_t databases_ = 0;  // entries
};

// A snapshot's lazily filled table of word rows: the query path resolves
// each query word to its row once per SelectDatabases call and reads every
// per-database and per-category statistic from it by index, instead of
// probing string-keyed maps per database and chain level.
//
// A word's row is built on its first use. The build probes every S(D)
// once, s_k only where S(D) holds the word (SampleResult::sample_df's
// words are words of the summary), and only the aggregates on the
// category paths of the databases that hold it: an aggregate is built
// from exactly the words of the summaries under it, so no other aggregate
// can hold the word.
//
// Thread-safety: rows are sharded by word hash, each shard under its own
// mutex; a row is built under its shard's lock, so each word is built at
// most once per table, and rows are never erased, so a row Row returns
// stays valid for the table's life.
class WordTable {
 public:
  // samples[i] is database i's sample and hierarchy_summaries the
  // aggregates over them; all must outlive the table and stay unchanged.
  WordTable(std::vector<const sampling::SampleResult*> samples,
            const HierarchySummaries* hierarchy_summaries);

  WordTable(const WordTable&) = delete;
  WordTable& operator=(const WordTable&) = delete;

  // The row of `word`, built on first use. A build counts in
  // serving.word_rows_built and records a word_row_build span under
  // `trace`; observational only.
  const WordRow& Row(const std::string& word,
                     const util::TraceContext& trace = {});

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    // Lock order: mu is terminal — a row build reads only the snapshot's
    // immutable samples and aggregates and takes no other lock; the
    // recording tracer's internal lock nests inside.
    util::Mutex mu;
    // Node-based, and never erased from: row addresses are stable.
    std::unordered_map<std::string, WordRow> rows FEDSEARCH_GUARDED_BY(mu);
  };

  WordRow Build(const std::string& word) const;

  std::vector<const sampling::SampleResult*> samples_;
  const HierarchySummaries* summaries_;
  // Database i's category path, root first.
  std::vector<std::vector<corpus::CategoryId>> paths_;
  std::array<Shard, kShards> shards_;
};

}  // namespace fedsearch::core

#endif  // FEDSEARCH_CORE_WORD_TABLE_H_

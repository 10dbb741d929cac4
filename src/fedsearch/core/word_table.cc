#include "fedsearch/core/word_table.h"

#include <functional>
#include <memory>
#include <utility>

#include "fedsearch/util/check.h"
#include "fedsearch/util/metrics.h"

namespace fedsearch::core {

namespace {

constexpr size_t kBitsPerWord = 64;

size_t WordsFor(size_t bits) {
  return (bits + kBitsPerWord - 1) / kBitsPerWord;
}

bool Test(const uint64_t* bits, size_t i) {
  return (bits[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1;
}

void Set(uint64_t* bits, size_t i) {
  bits[i / kBitsPerWord] |= uint64_t{1} << (i % kBitsPerWord);
}

}  // namespace

WordRow::WordRow(size_t database_words, size_t category_words,
                 size_t databases, size_t categories)
    : database_words_(static_cast<uint32_t>(database_words)),
      category_words_(static_cast<uint32_t>(category_words)),
      databases_(static_cast<uint32_t>(databases)) {
  const size_t bitmap_words = database_words + category_words;
  block_.reset(new std::byte[bitmap_words * sizeof(uint64_t) +
                             databases * sizeof(DatabaseEntry) +
                             categories * sizeof(summary::WordStats)]);
  std::byte* at = block_.get();
  std::uninitialized_value_construct_n(reinterpret_cast<uint64_t*>(at),
                                       bitmap_words);
  at += bitmap_words * sizeof(uint64_t);
  std::uninitialized_value_construct_n(reinterpret_cast<DatabaseEntry*>(at),
                                       databases);
  at += databases * sizeof(DatabaseEntry);
  std::uninitialized_value_construct_n(
      reinterpret_cast<summary::WordStats*>(at), categories);
}

WordTable::WordTable(std::vector<const sampling::SampleResult*> samples,
                     const HierarchySummaries* hierarchy_summaries)
    : samples_(std::move(samples)), summaries_(hierarchy_summaries) {
  FEDSEARCH_CHECK(samples_.size() == summaries_->num_databases())
      << " " << samples_.size() << " samples for "
      << summaries_->num_databases() << " summarized databases";
  paths_.reserve(samples_.size());
  for (size_t i = 0; i < samples_.size(); ++i) {
    paths_.push_back(
        summaries_->hierarchy().PathFromRoot(summaries_->classification(i)));
  }
}

WordRow WordTable::Build(const std::string& word) const {
  const size_t n = samples_.size();
  const size_t categories = summaries_->hierarchy().size();
  // The entries of the databases whose S(D) holds the word, and the
  // categories on those databases' paths.
  std::vector<std::pair<size_t, WordRow::DatabaseEntry>> databases;
  std::vector<uint64_t> on_path(WordsFor(categories), 0);
  for (size_t i = 0; i < n; ++i) {
    const sampling::SampleResult& sample = *samples_[i];
    const auto it = sample.summary.words().find(word);
    if (it == sample.summary.words().end()) continue;
    const auto df = sample.sample_df.find(word);
    databases.emplace_back(
        i, WordRow::DatabaseEntry{
               it->second, df != sample.sample_df.end() ? df->second : 0});
    for (corpus::CategoryId c : paths_[i]) {
      Set(on_path.data(), static_cast<size_t>(c));
    }
  }
  std::vector<std::pair<size_t, summary::WordStats>> aggregates;
  for (size_t c = 0; c < categories; ++c) {
    if (!Test(on_path.data(), c)) continue;
    const summary::ContentSummary& aggregate =
        summaries_->aggregate(static_cast<corpus::CategoryId>(c));
    const auto it = aggregate.words().find(word);
    if (it != aggregate.words().end()) aggregates.emplace_back(c, it->second);
  }

  WordRow row(WordsFor(n), WordsFor(categories), databases.size(),
              aggregates.size());
  for (size_t k = 0; k < databases.size(); ++k) {
    Set(row.block_words(), databases[k].first);
    row.database_entries()[k] = databases[k].second;
  }
  for (size_t k = 0; k < aggregates.size(); ++k) {
    Set(row.block_words() + row.database_words_, aggregates[k].first);
    row.category_entries()[k] = aggregates[k].second;
  }
  return row;
}

const WordRow& WordTable::Row(const std::string& word,
                              const util::TraceContext& trace) {
  static util::Counter& rows_built =
      util::GlobalMetrics().counter("serving.word_rows_built");
  Shard& shard = shards_[std::hash<std::string>()(word) % kShards];
  util::MutexLock lock(shard.mu);
  const auto it = shard.rows.find(word);
  if (it != shard.rows.end()) return it->second;
  // Built under the shard lock: each word at most once per table.
  util::Tracer::Scope build_span("word_row_build", trace);
  rows_built.Add();
  return shard.rows.emplace(word, Build(word)).first->second;
}

}  // namespace fedsearch::core

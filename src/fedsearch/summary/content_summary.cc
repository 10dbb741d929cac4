#include "fedsearch/summary/content_summary.h"

#include <algorithm>
#include <cmath>

namespace fedsearch::summary {

double SummaryView::ProbDoc(const std::string& word) const {
  const double n = num_documents();
  if (n <= 0.0) return 0.0;
  return std::min(1.0, DocFrequency(word) / n);
}

double SummaryView::ProbToken(const std::string& word) const {
  const double total = total_tokens();
  if (total <= 0.0) return 0.0;
  return std::min(1.0, TokenFrequency(word) / total);
}

bool SummaryView::ContainsRounded(const std::string& word) const {
  return std::lround(num_documents() * ProbDoc(word)) >= 1;
}

WordStats ContentSummary::Stats(const std::string& word) const {
  auto it = words_.find(word);
  return it == words_.end() ? WordStats{} : it->second;
}

void ContentSummary::ForEachWord(
    const std::function<void(const std::string&, const WordStats&)>& fn)
    const {
  for (const auto& [word, stats] : words_) fn(word, stats);
}

void ContentSummary::SetWord(const std::string& word, WordStats stats) {
  auto [it, inserted] = words_.emplace(word, stats);
  if (!inserted) {
    total_tokens_ -= it->second.ctf;
    it->second = stats;
  }
  total_tokens_ += stats.ctf;
}

void ContentSummary::AddWord(const std::string& word, WordStats stats) {
  WordStats& existing = words_[word];
  existing.df += stats.df;
  existing.ctf += stats.ctf;
  total_tokens_ += stats.ctf;
}

ContentSummary ContentSummary::Materialize(const SummaryView& view,
                                           bool trim) {
  ContentSummary out;
  out.set_num_documents(view.num_documents());
  const double n = view.num_documents();
  view.ForEachWord([&](const std::string& word, const WordStats& stats) {
    if (trim) {
      const double p = n > 0.0 ? std::min(1.0, stats.df / n) : 0.0;
      if (std::lround(n * p) < 1) return;
    }
    out.SetWord(word, stats);
  });
  return out;
}

ContentSummary ContentSummary::FromIndex(const index::InvertedIndex& index) {
  ContentSummary out;
  out.set_num_documents(static_cast<double>(index.num_documents()));
  index.ForEachTerm([&](const std::string& term, size_t df, uint64_t ctf) {
    out.SetWord(term, WordStats{static_cast<double>(df),
                                static_cast<double>(ctf)});
  });
  return out;
}

ContentSummary ContentSummary::AggregateCategory(
    const std::vector<const ContentSummary*>& database_summaries) {
  ContentSummary out;
  double total_docs = 0.0;
  for (const ContentSummary* s : database_summaries) {
    total_docs += s->num_documents();
    s->ForEachWord([&](const std::string& word, const WordStats& stats) {
      out.AddWord(word, stats);
    });
  }
  out.set_num_documents(total_docs);
  return out;
}

}  // namespace fedsearch::summary

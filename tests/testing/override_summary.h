#ifndef FEDSEARCH_TESTS_TESTING_OVERRIDE_SUMMARY_H_
#define FEDSEARCH_TESTS_TESTING_OVERRIDE_SUMMARY_H_

#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>

#include "fedsearch/summary/content_summary.h"
#include "fedsearch/util/check.h"

namespace fedsearch::testing {

// A summary view that overrides the document frequencies of a few words —
// the "assume w_k appears in exactly d_k documents" counterfactual of the
// Content Summary Selection step (Figure 3). Token frequencies of
// overridden words are scaled proportionally so LM-style scorers respond
// to the perturbation too — both for point lookups and for ForEachWord
// vocabulary iteration. A scorer's per-term form (selection/scoring.h)
// computes the same counterfactual per term without a view; this class is
// the reference its contract is stated and tested against.
class OverrideSummary : public summary::SummaryView {
 public:
  // Both referents must outlive this object.
  OverrideSummary(const summary::SummaryView* base,
                  const std::unordered_map<std::string, double>* df_override)
      : base_(base), df_override_(df_override) {}

  double num_documents() const override { return base_->num_documents(); }
  double total_tokens() const override { return base_->total_tokens(); }

  summary::WordStats Stats(const std::string& word) const override {
    const summary::WordStats base = base_->Stats(word);
    auto it = df_override_->find(word);
    if (it == df_override_->end()) return base;
    FEDSEARCH_DCHECK(it->second >= 0.0 && std::isfinite(it->second))
        << " df override " << it->second << " for " << word;
    // Keep the average per-document term count of the word; a word unseen
    // in the sample gets one occurrence per containing doc.
    return summary::WordStats{
        it->second,
        base.df > 0.0 ? it->second * base.ctf / base.df : it->second};
  }

  void ForEachWord(
      const std::function<void(const std::string&, const summary::WordStats&)>&
          fn) const override {
    // Overridden words are emitted with the overridden df and the
    // proportionally-scaled ctf (the values Stats reports); overridden
    // words absent from the base vocabulary are appended afterwards.
    base_->ForEachWord(
        [&](const std::string& word, const summary::WordStats& stats) {
          auto it = df_override_->find(word);
          if (it == df_override_->end()) {
            fn(word, stats);
            return;
          }
          summary::WordStats overridden;
          overridden.df = it->second;
          overridden.ctf = stats.df > 0.0
                               ? it->second * stats.ctf / stats.df
                               : it->second;
          fn(word, overridden);
        });
    for (const auto& [word, df] : *df_override_) {
      if (df <= 0.0 || base_->DocFrequency(word) > 0.0 ||
          base_->TokenFrequency(word) > 0.0) {
        continue;
      }
      // Word unseen in the sample: one occurrence per containing doc,
      // matching TokenFrequency.
      fn(word, summary::WordStats{df, df});
    }
  }

  size_t vocabulary_size() const override {
    size_t extra = 0;
    for (const auto& [word, df] : *df_override_) {
      if (df > 0.0 && base_->DocFrequency(word) <= 0.0 &&
          base_->TokenFrequency(word) <= 0.0) {
        ++extra;
      }
    }
    return base_->vocabulary_size() + extra;
  }

 private:
  const summary::SummaryView* base_;
  const std::unordered_map<std::string, double>* df_override_;
};

}  // namespace fedsearch::testing

#endif  // FEDSEARCH_TESTS_TESTING_OVERRIDE_SUMMARY_H_

#include "fedsearch/core/live_metasearcher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "fedsearch/util/check.h"
#include "fedsearch/util/metrics.h"

namespace fedsearch::core {

LiveMetasearcher::LiveMetasearcher(
    const corpus::TopicHierarchy* hierarchy,
    std::vector<sampling::SampleResult> samples,
    std::vector<corpus::CategoryId> classifications,
    MetasearcherOptions options)
    : hierarchy_(hierarchy), base_options_(std::move(options)) {
  // The refresh machinery owns the live-plumbing fields; a caller
  // pre-filling them would fight the prior bookkeeping below.
  FEDSEARCH_CHECK(base_options_.prior == nullptr &&
                  base_options_.changed_databases.empty())
      << " live-refresh option fields must be left at their defaults";
  auto first = std::make_shared<const Metasearcher>(
      hierarchy_, std::move(samples), std::move(classifications),
      base_options_);
  util::MutexLock lock(mu_);
  current_ = std::move(first);
}

std::shared_ptr<const Metasearcher> LiveMetasearcher::Snapshot() const {
  util::MutexLock lock(mu_);
  return current_;
}

SummaryEpoch LiveMetasearcher::epoch() const { return Snapshot()->epoch(); }

PosteriorCache::Stats LiveMetasearcher::posterior_cache_stats() const {
  return Snapshot()->posterior_cache_stats();
}

util::Status LiveMetasearcher::ApplyRefresh(
    std::vector<SummaryUpdate> updates) {
  util::MutexLock writer_lock(writer_mu_);
  // The published snapshot is the base of the next one; holding the
  // shared_ptr keeps it alive through construction even if every reader
  // drops theirs meanwhile.
  const std::shared_ptr<const Metasearcher> prior = Snapshot();
  const size_t n = prior->num_databases();
  std::vector<size_t> changed;
  changed.reserve(updates.size());
  for (const SummaryUpdate& u : updates) {
    if (u.database >= n) {
      return util::Status::InvalidArgument(
          "refresh names database " + std::to_string(u.database) +
          " but the federation has " + std::to_string(n));
    }
    if (static_cast<size_t>(u.classification) >= hierarchy_->size()) {
      return util::Status::InvalidArgument(
          "refresh classifies database " + std::to_string(u.database) +
          " as category " + std::to_string(u.classification) +
          ", not a node of the " + std::to_string(hierarchy_->size()) +
          "-node hierarchy");
    }
    changed.push_back(u.database);
  }
  std::sort(changed.begin(), changed.end());
  if (std::adjacent_find(changed.begin(), changed.end()) != changed.end()) {
    return util::Status::InvalidArgument(
        "refresh batch names a database more than once");
  }

  // The next snapshot shares every sample the batch leaves unchanged.
  std::vector<std::shared_ptr<const sampling::SampleResult>> samples =
      prior->samples_;
  std::vector<corpus::CategoryId> classifications = prior->classifications_;
  for (SummaryUpdate& u : updates) {
    samples[u.database] =
        std::make_shared<const sampling::SampleResult>(std::move(u.sample));
    classifications[u.database] = u.classification;
  }
  MetasearcherOptions options = base_options_;
  options.prior = prior.get();
  options.changed_databases = std::move(changed);
  // The expensive part — aggregates, shrinkage, statistics, the derived
  // posterior cache and its pins — runs here with only writer_mu_ held:
  // Snapshot() callers keep being served the prior epoch until the single
  // pointer swap below.
  auto next = std::make_shared<const Metasearcher>(
      hierarchy_, std::move(samples), std::move(classifications),
      std::move(options));
  util::GlobalMetrics().gauge("serving.summary_epoch").Set(
      static_cast<double>(next->epoch()));

  util::MutexLock lock(mu_);
  current_ = std::move(next);
  return util::Status::Ok();
}

}  // namespace fedsearch::core

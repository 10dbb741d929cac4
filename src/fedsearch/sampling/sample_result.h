#ifndef FEDSEARCH_SAMPLING_SAMPLE_RESULT_H_
#define FEDSEARCH_SAMPLING_SAMPLE_RESULT_H_

#include <cstddef>
#include <string>
#include <unordered_map>

#include "fedsearch/corpus/topic_hierarchy.h"
#include "fedsearch/summary/content_summary.h"

namespace fedsearch::sampling {

// How a sampling run against a remote database ended.
enum class SamplingOutcome {
  // The run finished on its own terms (target reached or vocabulary dry).
  kComplete,
  // The run hit remote faults — lost documents, abandoned queries, or an
  // exhausted failure budget — but still collected a usable sample.
  kPartial,
  // The run saw remote faults and ended without a single retrieved
  // document (the failure budget — or the query pool — ran dry against a
  // failing interface).
  kAborted,
};

// Fault accounting for one sampling run, filled in by SampleCollector from
// the run's RetryController. This is the sampler-side half of the
// degradation story: a partial sample is finalized and *flagged* rather
// than discarded, and the metasearcher decides how much to trust it.
struct SamplingHealth {
  SamplingOutcome outcome = SamplingOutcome::kComplete;
  // Failed attempts absorbed by retries across the run.
  size_t transient_failures = 0;
  // Calls abandoned after exhausting their per-call attempts.
  size_t queries_abandoned = 0;
  // Result documents whose download never succeeded.
  size_t documents_lost = 0;
  // Backoff the retry policy would have slept (no real clock here).
  double simulated_backoff_ms = 0.0;
  // The per-run failure budget ran dry and sampling stopped early.
  bool budget_exhausted = false;
};

// Everything a sampler learns about one database. This is the input to
// shrinkage (Section 3), adaptive selection (Section 4 / Appendix B), and
// the evaluation metrics.
struct SampleResult {
  // Approximate content summary S(D) of Definition 2, with database-scaled
  // df/ctf estimates and num_documents() == estimated |D|.
  summary::ContentSummary summary;

  // Number of documents in the sample, |S|.
  size_t sample_size = 0;

  // Estimated database size |D̂| (sample-resample method [27]).
  double estimated_db_size = 0.0;

  // Raw per-word sample document frequencies s_k (Appendix B needs these
  // alongside |S|). Its words are words of `summary`: the samplers build
  // both from one word map, and the metasearcher's word rows read s_k
  // only where the summary holds the word (a snapshot DCHECKs this for
  // every sample it is built over).
  std::unordered_map<std::string, size_t> sample_df;

  // Mandelbrot rank-frequency fit extrapolated to the database
  // (Appendix A): df(r) ≈ beta · r^alpha with alpha < 0.
  double mandelbrot_alpha = -1.0;
  double mandelbrot_log_beta = 0.0;

  // Category assigned by the sampler, if it classifies (FPS does; QBS
  // leaves kInvalidCategory and relies on an external directory).
  corpus::CategoryId classification = corpus::kInvalidCategory;

  // Cost accounting: queries issued against the database's interface.
  size_t queries_sent = 0;

  // Fault accounting: how the run interacted with an unreliable interface.
  SamplingHealth health;

  // Analyzed term vectors of the sampled documents, retained only when
  // SummaryBuildOptions::keep_documents is set (needed by sample-document
  // based selection such as ReDDE [27]).
  std::vector<std::vector<std::string>> sampled_documents;
};

}  // namespace fedsearch::sampling

#endif  // FEDSEARCH_SAMPLING_SAMPLE_RESULT_H_

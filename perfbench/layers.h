// Calls into the library shared by the workloads: federation sampling,
// broker slices, and the per-layer replays of the traced run.
//
// A replay calls the same public entry points the program calls
// internally, on the same inputs, and times each one. It measures what an
// entry point costs, not what the program chose to call, so a remainder
// (`core.build_other_s`, `core.select_other_us`) that is large or
// negative means the program and the replay have diverged.
#ifndef FEDSEARCH_PERFBENCH_LAYERS_H_
#define FEDSEARCH_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "fedsearch/broker/load_generator.h"
#include "fedsearch/broker/query_broker.h"
#include "fedsearch/core/metasearcher.h"
#include "fedsearch/core/posterior_cache.h"
#include "fedsearch/corpus/testbed.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/scoring.h"
#include "fedsearch/util/thread_pool.h"

namespace perfbench {

// Queries generated per testbed: the pool --seed draws the workload from.
size_t QueryPoolSize(size_t queries);
// Draws `count` distinct non-empty analyzed queries from the testbed's
// pool in a seed-shuffled order; returns their indices into bed.queries().
std::vector<size_t> DrawQueries(const corpus::Testbed& bed, size_t count,
                                uint64_t seed,
                                std::vector<selection::Query>& queries);

// QBS with frequency estimation at the paper's 300-document target.
sampling::QbsSampler MakeSampler(const corpus::Testbed& bed);

struct Federation {
  std::vector<sampling::SampleResult> samples;
  std::vector<corpus::CategoryId> classifications;
  uint64_t queries_sent = 0;
};

// Samples every database of `bed` with streams forked from `stream_seed`,
// one "sampling.probe_db" span per database.
Federation SampleFederation(const corpus::Testbed& bed,
                            const sampling::QbsSampler& sampler,
                            uint64_t stream_seed);

// Counter deltas of the adaptive layer and the posterior cache, read from
// util::GlobalMetrics() around a stretch of program calls.
struct DecisionCounts {
  uint64_t evaluations = 0;
  uint64_t chose_shrunk = 0;
  uint64_t gate_complete_sample = 0;
  uint64_t gate_no_mixed_evidence = 0;
  uint64_t draws = 0;
  uint64_t posterior_hits = 0;
  uint64_t posterior_misses = 0;
  uint64_t posterior_evictions = 0;
  uint64_t posterior_stale_misses = 0;
  uint64_t pool_loops_pooled = 0;
  uint64_t pool_loops_inline = 0;

  static DecisionCounts Now();
  DecisionCounts operator-(const DecisionCounts& before) const;
  bool operator==(const DecisionCounts& other) const;
};

void AddDecisionMetrics(Report& report, const DecisionCounts& counts);

// The core build, split by replaying its public constructors on the
// samples of `snapshot`. With `prior`, plain statistics are rebuilt
// incrementally (ScoringStatisticsCache::Rebuilt), as a live publish does.
struct BuildSplit {
  double hierarchy_s = 0.0;
  double em_s = 0.0;
  uint64_t em_iterations = 0;
  double plain_stats_s = 0.0;
  double shrunk_stats_s = 0.0;
  uint64_t vocabulary = 0;
};
BuildSplit ReplayBuild(const core::Metasearcher& snapshot,
                       const core::Metasearcher* prior,
                       const std::vector<size_t>& changed);
void AddBuildSplitMetrics(Report& report, const BuildSplit& split,
                          double build_s);

// Per-query seconds of each replayed query-path layer.
struct QueryLayers {
  double select = 0.0;  // the program's SelectDatabases
  double fill = 0.0;    // ScoringStatisticsCache::FillContext
  double lookup = 0.0;  // PosteriorCache::Get over the evaluated pairs
  double eval = 0.0;    // AdaptiveSummarySelector::Evaluate (incl. lookups)
  double score = 0.0;   // ScoringFunction::Score over the chosen summaries
  double rank = 0.0;    // RankDatabases (incl. scoring)

  void MinWith(const QueryLayers& other);
  QueryLayers& operator+=(const QueryLayers& other);
};

class QueryReplayer {
 public:
  // `meta` must outlive the replayer. `mode` is kPlain or
  // kAdaptiveShrinkage. `pool` (may be null) is handed to RankDatabases,
  // matching the program's fan-out.
  QueryReplayer(const core::Metasearcher* meta, core::SummaryMode mode,
                util::ThreadPool* pool);

  // Replays one query; `ranking_matches` reports whether the replayed
  // ranking equals the program's.
  QueryLayers Replay(const selection::Query& query,
                     const selection::ScoringFunction& scorer, uint64_t id,
                     bool* ranking_matches);

 private:
  const core::Metasearcher* meta_;
  core::SummaryMode mode_;
  util::ThreadPool* pool_;
  core::AdaptiveOptions adaptive_options_;
  core::AdaptiveSummarySelector selector_;
  core::PosteriorCache cache_;
  // Keeps the replayed Score calls observable.
  volatile double score_sink_ = 0.0;
};

// Replays every query for `passes` passes (after one untraced warm-up
// pass) and adds the per-query layer metrics, in microseconds.
void AddQueryLayerMetrics(Report& report, QueryReplayer& replayer,
                          const std::vector<selection::Query>& queries,
                          const std::vector<const selection::ScoringFunction*>&
                              scorers,
                          size_t passes, bool adaptive_program);

// A closed-loop client: one SelectDatabases at a time over every query, in
// passes. A query's latency is its best wall time across all passes of all
// windows; the windows are spread over the run so that one noisy stretch
// of the machine cannot set every sample. Every ranking must hash to
// `expected[q]`, or the run fails; an empty `expected` is filled from the
// first pass. In a traced run, passes alternate
// between untraced ones and ones that record a span per query; the latter
// feed `traced_best_s`, which measures the tracing overhead.
struct ClosedLoop {
  ClosedLoop(size_t queries, bool traced);

  std::vector<double> best_s;
  std::vector<double> traced_best_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t passes = 0;
  size_t untraced_passes = 0;
  double serving_s = 0.0;  // wall time spent in passes so far
  bool traced = false;
};
// Runs passes over `meta` while the loop's total serving time is below
// `until_s` (possibly none). The `last` window also runs until there are
// two untraced passes (and, when tracing, a traced one).
void RunClosedLoopWindow(
    const core::Metasearcher& meta,
    const std::vector<selection::Query>& queries,
    const std::vector<const selection::ScoringFunction*>& scorers,
    core::SummaryMode mode, std::vector<uint64_t>& expected, double until_s,
    bool last, ClosedLoop& loop);
// throughput_qps, latency_p50_ms and latency_p99_ms from the best times.
// With `goodput`, also goodput_qps: the same rate counting OK selections
// only (throughput_qps × the share of the loop's selections that were OK).
void AddServingMetrics(Report& report, const ClosedLoop& loop, bool goodput);
// trace.overhead_share and trace.overhead_us (traced minus untraced).
void AddTraceOverhead(Report& report, const ClosedLoop& loop);

// One open-loop slice through a broker: `requests` arrivals from
// `generator`, each Submit in a "broker.submit" span, then Drain. Returns
// the wall seconds from the first Submit to Drain returning.
double RunBrokerSlice(broker::QueryBroker& broker,
                      broker::OpenLoopGenerator& generator,
                      const std::vector<selection::Query>& queries,
                      size_t requests, uint64_t slice_id,
                      double* submit_seconds);

// The pinned broker settings: 2 workers, 100 ms deadline, today's
// Deadline::Costs table, batches of 8.
broker::BrokerOptions PinnedBrokerOptions();
// Virtual arrival rate at `load` times the full-quality sustainable rate
// of `databases` databases under the pinned cost model.
double PinnedArrivalQps(size_t databases, core::SummaryMode full_mode,
                        double load);

void AddBrokerMetrics(Report& report, const broker::BrokerStats& stats,
                      const std::vector<broker::RequestResult>& results,
                      uint64_t batches, double submit_seconds);

}  // namespace perfbench

#endif  // FEDSEARCH_PERFBENCH_LAYERS_H_

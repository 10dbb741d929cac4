#ifndef FEDSEARCH_BROKER_QUERY_BROKER_H_
#define FEDSEARCH_BROKER_QUERY_BROKER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "fedsearch/broker/admission.h"
#include "fedsearch/broker/degradation.h"
#include "fedsearch/broker/slo.h"
#include "fedsearch/core/live_metasearcher.h"
#include "fedsearch/core/metasearcher.h"
#include "fedsearch/selection/scoring.h"
#include "fedsearch/util/deadline.h"
#include "fedsearch/util/mutex.h"
#include "fedsearch/util/thread_annotations.h"
#include "fedsearch/util/trace.h"

namespace fedsearch::broker {

struct BrokerOptions {
  // Worker threads the broker starts, each running one SelectDatabases at
  // a time (the metasearcher itself should serve serially — inter-query
  // parallelism is the axis that scales).
  size_t num_workers = 4;
  // Requests a worker dequeues per queue-lock acquisition. Batch members
  // run back-to-back on one thread, sharing the metasearcher's warm
  // ScoringStatisticsCache / PosteriorCache epoch between adjacent
  // requests instead of interleaving with other workers' queries.
  size_t max_batch = 8;
  // Per-request deadline: a request submitted at virtual time t must
  // resolve by t + deadline_ms.
  double deadline_ms = 100.0;
  // Base (uninflated) virtual cost model; each request's copy is scaled by
  // its service inflation (tail faults) before prediction and execution.
  util::Deadline::Costs costs;
  AdmissionOptions admission;
  DegradationOptions degradation;
  // Rolling good/bad SLO accounting over resolved requests (see SloTracker).
  SloOptions slo;
  // Summary modes backing the two service levels.
  core::SummaryMode full_mode = core::SummaryMode::kAdaptiveShrinkage;
  core::SummaryMode degraded_mode = core::SummaryMode::kPlain;
};

// Terminal state of a request. Every submitted request reaches exactly one.
enum class Disposition : uint8_t {
  kPending = 0,         // still queued/executing (never final after Drain)
  kServedFull,          // full-quality ranking within deadline
  kServedDegraded,      // plain/CORI ranking within deadline (downgraded)
  kShedQueueFull,       // rejected at admission: queue at capacity
  kShedPredictedMiss,   // rejected at admission: EWMA predicts a miss
  kExpiredInQueue,      // admitted, but its deadline passed while waiting
  kExpiredExecuting,    // aborted mid-selection with kDeadlineExceeded
  kCancelledShutdown,   // still queued when Shutdown() ran
};

// Stable snake_case name for a disposition ("served_full", ...). Used as
// the span attribute / timeline-analysis vocabulary; tools/
// analyze_timeline.py matches these strings.
const char* DispositionName(Disposition disposition);

// Full per-request account. All times are *virtual* milliseconds on the
// broker's deterministic clock (see class comment), which is why two runs
// with the same arrivals produce bit-identical results.
struct RequestResult {
  Disposition disposition = Disposition::kPending;
  bool downgraded = false;       // assigned the degraded service level
  double arrival_ms = 0.0;
  double start_ms = 0.0;         // when a worker reached it (admitted only)
  double finish_ms = 0.0;        // when the client got an answer or gave up
  double queue_wait_ms = 0.0;    // start - arrival
  double service_ms = 0.0;       // virtual worker occupancy
  double predicted_cost_ms = 0.0;
  double service_inflation = 1.0;
  size_t evaluations_completed = 0;
  // FNV-1a over (database, score bits) of the served ranking; 0 when no
  // ranking was produced. Lets benches assert bit-identical outcomes
  // without retaining every ranking.
  uint64_t ranking_hash = 0;
  // Trace id of this request's span tree in util::Tracer::Global(); 0 when
  // tracing was disabled at submit. Observational: excluded from the
  // bit-identity the bench rerun check asserts (ids are allocation-ordered
  // across threads).
  uint64_t trace_id = 0;
  // Epoch of the summary snapshot this request was served against (0 for
  // a static metasearcher). Captured at Submit: under live churn, a
  // request admitted on epoch E executes on epoch E even if a refresh
  // publishes E+1 before a worker reaches it — prediction and execution
  // must see the same summaries for the dual-clock contract to hold.
  uint64_t summary_epoch = 0;

  bool admitted() const {
    return disposition != Disposition::kShedQueueFull &&
           disposition != Disposition::kShedPredictedMiss;
  }
  bool served() const {
    return disposition == Disposition::kServedFull ||
           disposition == Disposition::kServedDegraded;
  }
  // Client-observed latency: answer time for served requests, the deadline
  // itself where the client's timeout fired. By construction never exceeds
  // deadline_ms for admitted requests.
  double e2e_ms() const { return finish_ms - arrival_ms; }
};

// Aggregate view over results(); see QueryBroker::ComputeStats.
struct BrokerStats {
  size_t submitted = 0;
  size_t served_full = 0;
  size_t served_degraded = 0;
  size_t shed_queue_full = 0;
  size_t shed_predicted_miss = 0;
  size_t expired_in_queue = 0;
  size_t expired_executing = 0;
  size_t cancelled = 0;
  double ewma_service_ms = 0.0;
  // Deterministic SLO replay over results() in submit order (not the live
  // tracker, whose executed-request order follows real thread timing):
  // good fraction and burn rate over the final options().slo.window
  // requests, against options().slo.target_good_fraction.
  double slo_good_fraction = 1.0;
  double slo_burn_rate = 0.0;
  double slo_target_good_fraction = 0.0;

  size_t served() const { return served_full + served_degraded; }
  size_t shed() const { return shed_queue_full + shed_predicted_miss; }
  size_t expired() const { return expired_in_queue + expired_executing; }
  size_t resolved() const {
    return served() + shed() + expired() + cancelled;
  }
};

// Overload-robust serving front-end for database selection.
//
// Requests arrive open-loop (Submit with a virtual arrival time, typically
// from an OpenLoopGenerator) and pass through three robustness layers
// before one of the broker's worker threads runs SelectDatabases:
//
//   queue -> admission control -> degradation -> batch -> execute
//
// Determinism contract. The broker keeps two parallel notions of time:
//  * a *virtual* discrete-event schedule, advanced in arrival order under
//    one lock — admission verdicts, degradation levels, queue waits,
//    worker assignment, and deadline budgets are all computed here from
//    the request's scaled cost model (never from wall time or thread
//    timing);
//  * *real* execution on the worker threads, which run each admitted
//    request with a charge-based util::Deadline whose budget came from the
//    virtual schedule. Because SelectDatabases charges the identical cost
//    sequence, the execution's expiry verdict agrees with the virtual
//    prediction bit-for-bit (DCHECKed), and real thread interleaving can
//    only change *when* work happens, never any recorded number.
// Wall-clock timings still flow to the metrics layer, where they are
// observational by construction.
//
// Thread-safe: Submit may be called from multiple threads (virtual time is
// clamped monotone); Drain/Shutdown from any one thread. results() and
// ComputeStats() are valid once Drain() or Shutdown() returned.
class QueryBroker {
 public:
  // `meta` and `scorer` must outlive the broker. `meta` should serve
  // serially (num_threads = 1, the default): the broker supplies the
  // parallelism, and nested per-query fan-out would fight it for cores.
  // This overload serves a static federation: every request executes on
  // `meta` at epoch 0.
  QueryBroker(const core::Metasearcher* meta,
              const selection::ScoringFunction* scorer,
              BrokerOptions options = {});
  // Live-federation overload: each Submit snapshots `source` (an RCU
  // pointer copy, never blocking on refresh) and the request is predicted
  // AND executed against that one snapshot — a refresh landing between
  // Submit and execution cannot change any recorded number. `source` and
  // `scorer` must outlive the broker; every snapshot must present the
  // same num_databases (the federation's membership is fixed, only its
  // contents churn).
  QueryBroker(const core::MetasearcherSource* source,
              const selection::ScoringFunction* scorer,
              BrokerOptions options = {});
  ~QueryBroker();

  QueryBroker(const QueryBroker&) = delete;
  QueryBroker& operator=(const QueryBroker&) = delete;

  const BrokerOptions& options() const { return options_; }

  // Submits one request arriving at virtual time `arrival_ms` (must be
  // non-decreasing per submitter; concurrent submitters are clamped onto
  // the broker's monotone clock). `service_inflation` >= 1 scales the
  // request's cost model — the slow-fault hook. Returns the request's
  // index into results().
  size_t Submit(const selection::Query& query, double arrival_ms,
                double service_inflation = 1.0) FEDSEARCH_EXCLUDES(mu_);

  // Blocks until every admitted request has been executed and recorded.
  void Drain() FEDSEARCH_EXCLUDES(mu_);

  // Stops the workers. Requests still queued are resolved as
  // kCancelledShutdown (clean shutdown with a non-empty queue is
  // supported and tested). Idempotent; the destructor calls it.
  void Shutdown() FEDSEARCH_EXCLUDES(mu_);

  // Per-request accounts, indexed by the value Submit returned. The
  // returned reference outlives the lock: per the class contract it is
  // only stable (and only meaningful) once Drain() or Shutdown() returned
  // and the workers have stopped mutating it.
  const std::vector<RequestResult>& results() const FEDSEARCH_EXCLUDES(mu_);

  // Tallies results(); CHECK-fails on a kPending request, so calling it
  // after Drain doubles as the every-request-resolves invariant.
  BrokerStats ComputeStats() const FEDSEARCH_EXCLUDES(mu_);

  // One-shot introspection snapshot of the live broker (queue/admission/
  // degradation/SLO state) as JSON — the payload behind bench_broker's
  // --statusz flag. Callable at any point in the broker's life, including
  // mid-load; takes the scheduler lock for a consistent picture.
  std::string StatuszJson(int indent = 2) const FEDSEARCH_EXCLUDES(mu_);

 private:
  struct QueueItem {
    size_t seq = 0;
    selection::Query query;
    // The epoch snapshot this request was admitted against. Keeps the
    // snapshot's caches and summaries alive until execution even if the
    // source has since published a newer epoch (RCU grace period = the
    // lifetime of the last QueueItem holding the pointer).
    std::shared_ptr<const core::Metasearcher> snapshot;
    core::SummaryMode mode = core::SummaryMode::kPlain;
    double budget_ms = 0.0;  // <= 0: already expired, drop on sight
    util::Deadline::Costs costs;
    bool predicted_expiry = false;
    // Request trace (inactive when tracing was off at submit) and the wall
    // time of enqueue, so the dequeuing worker can emit the cross-thread
    // broker_queue span retroactively. Observational only.
    util::TraceContext trace;
    uint64_t enqueue_ns = 0;
  };
  // A virtually-inflight request, waiting to feed the admission EWMA at
  // its completion time.
  struct VirtualCompletion {
    double finish_ms = 0.0;
    size_t seq = 0;
    double service_ms = 0.0;
    bool operator>(const VirtualCompletion& other) const {
      if (finish_ms != other.finish_ms) return finish_ms > other.finish_ms;
      return seq > other.seq;
    }
  };

  // Exact replay of the charge sequence SelectDatabases will perform for
  // `mode` under `costs` against a snapshot with `num_databases` databases
  // of which `num_evaluated` get adaptive evaluations — same additions,
  // same order, so comparing the sum against the budget predicts the
  // execution's expiry verdict.
  static double PredictCostMs(core::SummaryMode mode,
                              const util::Deadline::Costs& costs,
                              size_t num_databases, size_t num_evaluated);

  // Both public constructors delegate here. `source` is shared only so
  // that the static overload can own its FixedMetasearcherSource; the
  // live overload passes an ownerless alias of the caller's source.
  QueryBroker(std::shared_ptr<const core::MetasearcherSource> source,
              const selection::ScoringFunction* scorer, BrokerOptions options);

  void WorkerLoop() FEDSEARCH_EXCLUDES(mu_);
  void ExecuteOne(QueueItem& item) FEDSEARCH_EXCLUDES(mu_);
  // Advances the virtual discrete-event schedule to `now`: completions
  // whose finish time passed feed the admission EWMA in finish order, and
  // requests whose start time passed free their virtual queue slots.
  void AdvanceVirtualClockLocked(double now) FEDSEARCH_REQUIRES(mu_);
  // Resolves everything still queued as kCancelledShutdown so every
  // submitted request reaches a terminal disposition even on a shutdown
  // with a non-empty queue.
  void CancelQueuedLocked() FEDSEARCH_REQUIRES(mu_);
  // Feeds the live SLO tracker and its gauges. The live feed order for
  // executed requests follows real completion timing, so these gauges are
  // observational; deterministic SLO numbers come from ComputeStats'
  // submit-order replay.
  void ObserveSloLocked(bool good) FEDSEARCH_REQUIRES(mu_);

  // What Submit snapshots (see the private constructor).
  std::shared_ptr<const core::MetasearcherSource> source_;
  const selection::ScoringFunction* scorer_;
  BrokerOptions options_;

  // Lock order: mu_ -> util::Tracer's internal lock (span scopes opened
  // under mu_ record on destruction; the tracer never calls back into the
  // broker) and mu_ -> the MetasearcherSource's terminal snapshot lock
  // (Submit copies the RCU pointer under mu_; the source never calls back
  // into the broker). mu_ is never held across SelectDatabases or any
  // other potentially-blocking call, and no broker path takes mu_ while
  // holding a pool or shard lock.
  mutable util::Mutex mu_;
  util::CondVar work_cv_;
  util::CondVar drain_cv_;
  bool stopping_ FEDSEARCH_GUARDED_BY(mu_) = false;
  std::deque<QueueItem> queue_ FEDSEARCH_GUARDED_BY(mu_);
  std::vector<RequestResult> results_ FEDSEARCH_GUARDED_BY(mu_);
  size_t enqueued_ FEDSEARCH_GUARDED_BY(mu_) = 0;
  size_t completed_ FEDSEARCH_GUARDED_BY(mu_) = 0;

  // Virtual scheduler state (guarded by mu_, advanced in arrival order).
  double last_now_ms_ FEDSEARCH_GUARDED_BY(mu_) = 0.0;
  std::vector<double> worker_free_ms_ FEDSEARCH_GUARDED_BY(mu_);
  // Times at which waiting requests leave the queue (a worker reaches
  // them); size = virtual queue depth.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      queue_release_ FEDSEARCH_GUARDED_BY(mu_);
  std::priority_queue<VirtualCompletion, std::vector<VirtualCompletion>,
                      std::greater<VirtualCompletion>>
      inflight_ FEDSEARCH_GUARDED_BY(mu_);
  AdmissionController admission_ FEDSEARCH_GUARDED_BY(mu_);
  DegradationPolicy degradation_ FEDSEARCH_GUARDED_BY(mu_);
  // SloTracker is not itself thread-safe by design; the broker owns the
  // only instance and updates it under the scheduler lock.
  SloTracker slo_ FEDSEARCH_GUARDED_BY(mu_);
  // num_workers threads, each running WorkerLoop until Shutdown joins it.
  std::vector<std::thread> workers_;
};

}  // namespace fedsearch::broker

#endif  // FEDSEARCH_BROKER_QUERY_BROKER_H_

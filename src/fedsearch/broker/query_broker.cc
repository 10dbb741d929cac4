#include "fedsearch/broker/query_broker.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "fedsearch/util/check.h"
#include "fedsearch/util/json_writer.h"
#include "fedsearch/util/metrics.h"
#include "fedsearch/util/trace.h"

namespace fedsearch::broker {

namespace {

struct BrokerMetrics {
  util::Counter& submitted = util::GlobalMetrics().counter("broker.submitted");
  util::Counter& served_full =
      util::GlobalMetrics().counter("broker.served_full");
  util::Counter& served_degraded =
      util::GlobalMetrics().counter("broker.served_degraded");
  util::Counter& shed_queue_full =
      util::GlobalMetrics().counter("broker.shed_queue_full");
  util::Counter& shed_predicted_miss =
      util::GlobalMetrics().counter("broker.shed_predicted_miss");
  util::Counter& expired_in_queue =
      util::GlobalMetrics().counter("broker.expired_in_queue");
  util::Counter& expired_executing =
      util::GlobalMetrics().counter("broker.expired_executing");
  util::Counter& cancelled = util::GlobalMetrics().counter("broker.cancelled");
  util::Counter& downgrades =
      util::GlobalMetrics().counter("broker.downgrades");
  util::Counter& batches = util::GlobalMetrics().counter("broker.batches");
  util::Gauge& queue_depth = util::GlobalMetrics().gauge("broker.queue_depth");
  util::Histogram& batch_size =
      util::GlobalMetrics().histogram("broker.batch_size");
  util::Histogram& queue_wait_virtual_us =
      util::GlobalMetrics().histogram("broker.queue_wait_virtual_us");
  util::Histogram& e2e_virtual_us =
      util::GlobalMetrics().histogram("broker.e2e_virtual_us");
  util::Histogram& execute_ns =
      util::GlobalMetrics().histogram("broker.execute_ns");
  util::Gauge& slo_good_fraction =
      util::GlobalMetrics().gauge("broker.slo_good_fraction");
  util::Gauge& slo_burn_rate =
      util::GlobalMetrics().gauge("broker.slo_burn_rate");
};

BrokerMetrics& Metrics() {
  static BrokerMetrics* m = new BrokerMetrics();
  return *m;
}

uint64_t HashRanking(const std::vector<selection::RankedDatabase>& ranking) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (v >> shift) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  for (const selection::RankedDatabase& entry : ranking) {
    uint64_t score_bits = 0;
    static_assert(sizeof(score_bits) == sizeof(entry.score));
    std::memcpy(&score_bits, &entry.score, sizeof(score_bits));
    mix(static_cast<uint64_t>(entry.database));
    mix(score_bits);
  }
  // Hash of an empty ranking stays distinguishable from "no ranking" (0).
  return h == 0 ? 1 : h;
}

uint64_t VirtualMsToUs(double ms) {
  return ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * 1000.0 + 0.5);
}

}  // namespace

const char* DispositionName(Disposition disposition) {
  switch (disposition) {
    case Disposition::kPending:
      return "pending";
    case Disposition::kServedFull:
      return "served_full";
    case Disposition::kServedDegraded:
      return "served_degraded";
    case Disposition::kShedQueueFull:
      return "shed_queue_full";
    case Disposition::kShedPredictedMiss:
      return "shed_predicted_miss";
    case Disposition::kExpiredInQueue:
      return "expired_in_queue";
    case Disposition::kExpiredExecuting:
      return "expired_executing";
    case Disposition::kCancelledShutdown:
      return "cancelled_shutdown";
  }
  return "unknown";
}

QueryBroker::QueryBroker(const core::Metasearcher* meta,
                         const selection::ScoringFunction* scorer,
                         BrokerOptions options)
    : QueryBroker(std::make_shared<const core::FixedMetasearcherSource>(meta),
                  scorer, options) {}

QueryBroker::QueryBroker(const core::MetasearcherSource* source,
                         const selection::ScoringFunction* scorer,
                         BrokerOptions options)
    : QueryBroker(std::shared_ptr<const core::MetasearcherSource>(
                      std::shared_ptr<void>(), source),
                  scorer, options) {}

QueryBroker::QueryBroker(
    std::shared_ptr<const core::MetasearcherSource> source,
    const selection::ScoringFunction* scorer, BrokerOptions options)
    : source_(std::move(source)),
      scorer_(scorer),
      options_(options),
      admission_(options.admission),
      degradation_(options.degradation),
      slo_(options.slo) {
  options_.num_workers = std::max<size_t>(options_.num_workers, 1);
  options_.max_batch = std::max<size_t>(options_.max_batch, 1);
  worker_free_ms_.assign(options_.num_workers, 0.0);
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryBroker::~QueryBroker() { Shutdown(); }

double QueryBroker::PredictCostMs(core::SummaryMode mode,
                                  const util::Deadline::Costs& costs,
                                  size_t num_databases, size_t num_evaluated) {
  // Mirrors SelectDatabases' bounded path: one adaptive-evaluation charge
  // per non-degraded database (adaptive mode only), then one scoring
  // charge per database — folded in the same order so the float result is
  // identical to the execution's consumed_ms().
  double cost = 0.0;
  if (mode == core::SummaryMode::kAdaptiveShrinkage) {
    for (size_t i = 0; i < num_evaluated; ++i) {
      cost += costs.adaptive_evaluation_ms;
    }
  }
  for (size_t i = 0; i < num_databases; ++i) {
    cost += costs.score_ms;
  }
  return cost;
}

size_t QueryBroker::Submit(const selection::Query& query, double arrival_ms,
                           double service_inflation) {
  util::MutexLock lock(mu_);
  Metrics().submitted.Add();

  // Root of this request's span tree. A fresh trace id per request; every
  // downstream layer parents under context() handed through call
  // signatures. Lock order is broker mu_ -> tracer mu_ (at scope exits);
  // the tracer never takes broker locks, so no inversion is possible.
  util::Tracer::Scope submit_span("broker_submit",
                                  util::Tracer::Global().StartTrace());

  const size_t seq = results_.size();
  results_.emplace_back();
  RequestResult& r = results_.back();
  r.trace_id = submit_span.context().trace_id;
  submit_span.AttrUint("seq", seq).AttrDouble("arrival_ms", arrival_ms);
  if (stopping_) {
    // A submitter racing Shutdown gets the same answer a queued request
    // does: the broker is gone, nobody will serve this.
    r.arrival_ms = std::max(arrival_ms, last_now_ms_);
    r.finish_ms = r.arrival_ms;
    r.disposition = Disposition::kCancelledShutdown;
    submit_span.AttrStr("disposition", DispositionName(r.disposition));
    Metrics().cancelled.Add();
    ObserveSloLocked(false);
    return seq;
  }
  // Concurrent submitters may present slightly out-of-order arrival times;
  // the broker's virtual clock only moves forward.
  const double now = std::max(arrival_ms, last_now_ms_);
  last_now_ms_ = now;
  r.arrival_ms = now;
  r.service_inflation = service_inflation;

  AdvanceVirtualClockLocked(now);

  // Layer 1: admission control, from observable state only (depth + EWMA).
  const size_t depth = queue_release_.size();
  double estimated_delay_ms;
  AdmissionController::Verdict verdict;
  {
    util::Tracer::Scope admission_span("admission", submit_span.context());
    estimated_delay_ms =
        admission_.EstimatedQueueDelayMs(depth, options_.num_workers);
    verdict =
        admission_.Consider(depth, options_.num_workers, options_.deadline_ms);
    admission_span
        .AttrStr("verdict",
                 verdict == AdmissionController::Verdict::kAdmit ? "admit"
                 : verdict == AdmissionController::Verdict::kRejectQueueFull
                     ? "reject_queue_full"
                     : "reject_predicted_miss")
        .AttrUint("queue_depth", depth)
        .AttrDouble("estimated_delay_ms", estimated_delay_ms)
        .AttrDouble("ewma_service_ms", admission_.ewma_service_ms());
  }
  if (verdict != AdmissionController::Verdict::kAdmit) {
    // Rejected instantly: the client is told kResourceExhausted at arrival
    // and no worker ever sees the request.
    r.finish_ms = now;
    if (verdict == AdmissionController::Verdict::kRejectQueueFull) {
      r.disposition = Disposition::kShedQueueFull;
      Metrics().shed_queue_full.Add();
    } else {
      r.disposition = Disposition::kShedPredictedMiss;
      Metrics().shed_predicted_miss.Add();
    }
    submit_span.AttrStr("disposition", DispositionName(r.disposition))
        .AttrDouble("deadline_ms", options_.deadline_ms)
        .AttrDouble("queue_wait_ms", 0.0)
        .AttrDouble("service_ms", 0.0)
        .AttrDouble("e2e_ms", 0.0);
    ObserveSloLocked(false);
    return seq;
  }

  // Layer 2: graceful degradation — shed quality before requests.
  ServiceLevel level;
  {
    util::Tracer::Scope degradation_span("degradation", submit_span.context());
    level = degradation_.Update(estimated_delay_ms, options_.deadline_ms);
    degradation_span.AttrStr(
        "level", level == ServiceLevel::kDegraded ? "degraded" : "full");
  }
  r.downgraded = level == ServiceLevel::kDegraded;
  if (r.downgraded) Metrics().downgrades.Add();
  const core::SummaryMode mode =
      r.downgraded ? options_.degraded_mode : options_.full_mode;

  // Pin this request to the epoch snapshot current at admission: cost
  // prediction and execution both use exactly these summaries, so a
  // refresh publishing a newer epoch mid-flight cannot change a recorded
  // number. Lock order: broker mu_ -> source's internal lock (a pointer
  // copy under the source's terminal mutex; the source never calls back
  // into the broker).
  std::shared_ptr<const core::Metasearcher> snapshot = source_->Snapshot();
  r.summary_epoch = snapshot->epoch();
  submit_span.AttrUint("summary_epoch", r.summary_epoch);

  // Per-request cost table: the base model scaled by this request's tail
  // inflation; prediction and execution both use this exact table.
  util::Deadline::Costs costs = options_.costs;
  costs.adaptive_evaluation_ms *= service_inflation;
  costs.score_ms *= service_inflation;
  costs.search_ms *= service_inflation;
  const double cost_ms =
      PredictCostMs(mode, costs, snapshot->num_databases(),
                    snapshot->num_databases() - snapshot->num_degraded());
  r.predicted_cost_ms = cost_ms;

  // Virtual placement: FIFO onto the earliest-free worker (lowest index on
  // ties). Since worker_free never decreases and now is monotone, start
  // times are monotone too.
  const size_t w = static_cast<size_t>(
      std::min_element(worker_free_ms_.begin(), worker_free_ms_.end()) -
      worker_free_ms_.begin());
  const double start_ms = std::max(now, worker_free_ms_[w]);
  const double abs_deadline_ms = now + options_.deadline_ms;
  double budget_ms = abs_deadline_ms - start_ms;
  r.start_ms = start_ms;
  r.queue_wait_ms = start_ms - now;
  queue_release_.push(start_ms);
  if (budget_ms <= 0.0) {
    // Expired while waiting: the worker that reaches it at start_ms drops
    // it in zero time (no worker occupancy, no EWMA sample); the client's
    // timeout fired at the deadline.
    budget_ms = 0.0;
    r.finish_ms = abs_deadline_ms;
  } else {
    const double service_ms = std::min(cost_ms, budget_ms);
    worker_free_ms_[w] = start_ms + service_ms;
    inflight_.push(VirtualCompletion{start_ms + service_ms, seq, service_ms});
    // A request whose cost crosses the budget resolves at the deadline
    // (client timeout); otherwise when its work completes.
    r.finish_ms = cost_ms >= budget_ms ? abs_deadline_ms : start_ms + cost_ms;
    r.service_ms = service_ms;
  }
  Metrics().queue_wait_virtual_us.Record(VirtualMsToUs(r.queue_wait_ms));
  Metrics().e2e_virtual_us.Record(VirtualMsToUs(r.e2e_ms()));

  QueueItem item;
  item.seq = seq;
  item.query = query;
  item.snapshot = std::move(snapshot);
  item.mode = mode;
  item.budget_ms = budget_ms;
  item.costs = costs;
  item.predicted_expiry = budget_ms > 0.0 && cost_ms >= budget_ms;
  item.trace = submit_span.context();
  item.enqueue_ns = submit_span.recording() ? util::MonotonicNanos() : 0;
  // The full virtual account lands on the root span at submit time — on
  // the dual-clock design the scheduler already knows the request's fate
  // (the DCHECK in ExecuteOne pins execution to it), so the timeline
  // analyzer can attribute latency without waiting for the worker.
  submit_span
      .AttrStr("disposition",
               DispositionName(budget_ms <= 0.0 ? Disposition::kExpiredInQueue
                               : item.predicted_expiry
                                   ? Disposition::kExpiredExecuting
                               : r.downgraded ? Disposition::kServedDegraded
                                              : Disposition::kServedFull))
      .AttrBool("downgraded", r.downgraded)
      .AttrDouble("deadline_ms", options_.deadline_ms)
      .AttrDouble("queue_wait_ms", r.queue_wait_ms)
      .AttrDouble("service_ms", r.service_ms)
      .AttrDouble("e2e_ms", r.e2e_ms())
      .AttrDouble("predicted_cost_ms", cost_ms)
      .AttrDouble("budget_ms", budget_ms);
  queue_.push_back(std::move(item));
  ++enqueued_;
  Metrics().queue_depth.Set(static_cast<double>(queue_.size()));
  work_cv_.NotifyOne();
  return seq;
}

void QueryBroker::AdvanceVirtualClockLocked(double now) {
  while (!inflight_.empty() && inflight_.top().finish_ms <= now) {
    admission_.ObserveService(inflight_.top().service_ms);
    inflight_.pop();
  }
  while (!queue_release_.empty() && queue_release_.top() <= now) {
    queue_release_.pop();
  }
}

void QueryBroker::WorkerLoop() {
  std::vector<QueueItem> batch;
  while (true) {
    batch.clear();
    {
      util::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping, and Shutdown drained the rest
      const size_t take = std::min(options_.max_batch, queue_.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      Metrics().queue_depth.Set(static_cast<double>(queue_.size()));
    }
    Metrics().batches.Add();
    Metrics().batch_size.Record(batch.size());
    for (QueueItem& item : batch) ExecuteOne(item);
  }
}

void QueryBroker::ExecuteOne(QueueItem& item) {
  // Cross-thread queue-wait span, emitted retroactively now that the wait
  // is over: the submit thread captured enqueue_ns, this worker supplies
  // the dequeue edge. Sibling of broker_execute under the request root.
  if (item.trace.active() && item.enqueue_ns != 0) {
    util::Tracer::Global().EmitSpan(
        "broker_queue", item.trace, item.enqueue_ns, util::MonotonicNanos(),
        {util::Tracer::UintAttr("seq", item.seq)});
  }
  util::Tracer::Scope execute_span("broker_execute", item.trace);
  execute_span.AttrUint("seq", item.seq)
      .AttrDouble("budget_ms", item.budget_ms);
  util::ScopedTimer execute_timer(Metrics().execute_ns);

  Disposition disposition;
  uint64_t ranking_hash = 0;
  size_t evaluations = 0;
  if (item.budget_ms <= 0.0) {
    // Dead on dequeue — drop instead of burning the worker.
    disposition = Disposition::kExpiredInQueue;
  } else {
    util::Deadline deadline(item.budget_ms, item.costs);
    const core::Metasearcher::SelectionOutcome outcome =
        item.snapshot->SelectDatabases(item.query, *scorer_, item.mode,
                                       &deadline, execute_span.context());
    evaluations = outcome.evaluations_completed;
    if (!outcome.status.ok()) {
      disposition = Disposition::kExpiredExecuting;
    } else {
      disposition = item.mode == options_.degraded_mode &&
                            options_.degraded_mode != options_.full_mode
                        ? Disposition::kServedDegraded
                        : Disposition::kServedFull;
      ranking_hash = HashRanking(outcome.ranking);
    }
    // The virtual schedule predicted this verdict from the cost model; the
    // execution must agree, or virtual latencies are fiction.
    FEDSEARCH_DCHECK(item.predicted_expiry == !outcome.status.ok())
        << "cost-model prediction diverged from execution for request "
        << item.seq;
  }
  execute_span.AttrStr("disposition", DispositionName(disposition))
      .AttrUint("evaluations", evaluations);

  util::MutexLock lock(mu_);
  RequestResult& r = results_[item.seq];
  r.disposition = disposition;
  r.ranking_hash = ranking_hash;
  r.evaluations_completed = evaluations;
  switch (disposition) {
    case Disposition::kServedFull:
      Metrics().served_full.Add();
      break;
    case Disposition::kServedDegraded:
      Metrics().served_degraded.Add();
      break;
    case Disposition::kExpiredInQueue:
      Metrics().expired_in_queue.Add();
      break;
    default:
      Metrics().expired_executing.Add();
      break;
  }
  ObserveSloLocked(disposition == Disposition::kServedFull ||
                   disposition == Disposition::kServedDegraded);
  ++completed_;
  if (completed_ == enqueued_) drain_cv_.NotifyAll();
}

void QueryBroker::Drain() {
  util::MutexLock lock(mu_);
  while (completed_ != enqueued_) drain_cv_.Wait(mu_);
}

void QueryBroker::CancelQueuedLocked() {
  for (QueueItem& item : queue_) {
    RequestResult& r = results_[item.seq];
    r.disposition = Disposition::kCancelledShutdown;
    r.finish_ms = last_now_ms_;
    Metrics().cancelled.Add();
    ObserveSloLocked(false);
    ++completed_;
  }
  queue_.clear();
  Metrics().queue_depth.Set(0.0);
}

void QueryBroker::Shutdown() {
  {
    // Idempotent: a second call (e.g. the destructor after an explicit
    // Shutdown) finds an empty queue and no workers left to join.
    util::MutexLock lock(mu_);
    stopping_ = true;
    // Whatever is still queued will never run; resolve it so every request
    // reaches a terminal disposition.
    CancelQueuedLocked();
  }
  work_cv_.NotifyAll();
  drain_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

const std::vector<RequestResult>& QueryBroker::results() const {
  util::MutexLock lock(mu_);
  return results_;
}

BrokerStats QueryBroker::ComputeStats() const {
  util::MutexLock lock(mu_);
  BrokerStats stats;
  stats.submitted = results_.size();
  for (const RequestResult& r : results_) {
    switch (r.disposition) {
      case Disposition::kServedFull:
        ++stats.served_full;
        break;
      case Disposition::kServedDegraded:
        ++stats.served_degraded;
        break;
      case Disposition::kShedQueueFull:
        ++stats.shed_queue_full;
        break;
      case Disposition::kShedPredictedMiss:
        ++stats.shed_predicted_miss;
        break;
      case Disposition::kExpiredInQueue:
        ++stats.expired_in_queue;
        break;
      case Disposition::kExpiredExecuting:
        ++stats.expired_executing;
        break;
      case Disposition::kCancelledShutdown:
        ++stats.cancelled;
        break;
      case Disposition::kPending:
        FEDSEARCH_CHECK(false)
            << "ComputeStats before Drain: request still pending";
        break;
    }
  }
  stats.ewma_service_ms = admission_.ewma_service_ms();
  // Deterministic SLO replay: the live tracker saw executed requests in
  // real completion order, but the *set* of outcomes is fixed by the
  // virtual schedule, so replaying results_ in submit order yields
  // bit-identical SLO numbers for every run of the same seed.
  SloTracker replay(options_.slo);
  for (const RequestResult& r : results_) replay.Observe(r.served());
  stats.slo_good_fraction = replay.good_fraction();
  stats.slo_burn_rate = replay.burn_rate();
  stats.slo_target_good_fraction = options_.slo.target_good_fraction;
  return stats;
}

void QueryBroker::ObserveSloLocked(bool good) {
  slo_.Observe(good);
  Metrics().slo_good_fraction.Set(slo_.good_fraction());
  Metrics().slo_burn_rate.Set(slo_.burn_rate());
}

std::string QueryBroker::StatuszJson(int indent) const {
  util::MutexLock lock(mu_);
  util::JsonWriter w(indent);
  w.BeginObject();
  w.Key("queue").BeginObject();
  w.Key("depth").Value(queue_.size());
  w.Key("virtual_depth").Value(queue_release_.size());
  w.Key("submitted").Value(results_.size());
  w.Key("enqueued").Value(enqueued_);
  w.Key("completed").Value(completed_);
  w.Key("stopping").Value(stopping_);
  w.Key("workers").Value(options_.num_workers);
  w.Key("max_batch").Value(options_.max_batch);
  w.Key("deadline_ms").Value(options_.deadline_ms);
  w.Key("virtual_now_ms").Value(last_now_ms_);
  w.EndObject();
  w.Key("admission").BeginObject();
  w.Key("queue_capacity").Value(options_.admission.queue_capacity);
  w.Key("ewma_service_ms").Value(admission_.ewma_service_ms());
  w.Key("observations").Value(admission_.observations());
  w.EndObject();
  w.Key("degradation").BeginObject();
  w.Key("level").Value(degradation_.level() == ServiceLevel::kDegraded
                           ? "degraded"
                           : "full");
  w.Key("episodes").Value(degradation_.degraded_episodes());
  w.EndObject();
  w.Key("slo").BeginObject();
  w.Key("target_good_fraction").Value(options_.slo.target_good_fraction);
  w.Key("window").Value(options_.slo.window);
  w.Key("in_window").Value(slo_.in_window());
  w.Key("good_fraction").Value(slo_.good_fraction());
  w.Key("burn_rate").Value(slo_.burn_rate());
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace fedsearch::broker

// churn-broker: a live federation under ChurnTestbed drift. Each epoch the
// racing RefreshScheduler picks databases to re-probe, the fresh samples
// are published with LiveMetasearcher::ApplyRefresh, a slice of adaptive
// CORI requests is drained through a QueryBroker, and R_3 of the
// published snapshot is measured against the current corpus. The whole
// epoch loop runs kPasses times from the same seed; every rerun must
// reproduce the first pass exactly, and each epoch's refresh and each
// slice keep their best time across the passes.
//
// A closed-loop client also serves the first setup's epoch-0 snapshot
// with adaptive CORI, bGlOSS and LM round-robin over 8-26 term queries,
// the query-time work of the paper's adaptive shrinkage on a federation
// whose databases are all partially sampled.

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "fedsearch/core/live_metasearcher.h"
#include "fedsearch/corpus/churn.h"
#include "fedsearch/sampling/refresh_scheduler.h"
#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/lm.h"
#include "fedsearch/selection/rk_metric.h"
#include "fedsearch/summary/metrics.h"
#include "layers.h"

namespace perfbench {

namespace {

// setup_s is the median of kSetups setups. The first one's epoch-0
// snapshot serves the closed-loop client and is never refreshed; the
// other kPasses each run one epoch-loop pass.
constexpr size_t kSetups = 4;
constexpr size_t kPasses = kSetups - 1;
constexpr size_t kRefreshBudget = 4;  // databases re-probed per epoch
constexpr size_t kReplayPasses = 2;
constexpr size_t kRkK = 3;

struct Shape {
  size_t databases = 24;
  size_t queries = 1000;     // closed-loop client and broker arrivals
  size_t rk_queries = 100;   // R_3 per epoch
  size_t epochs = 3;
  size_t slice_requests = 1000;
  // Offered / sustainable virtual rate: at 1.0 the virtual queue wanders
  // far enough for the broker to degrade some requests. The smoke's few
  // requests need an overload to get there.
  double load = 1.0;
  corpus::TestbedOptions bed;
};

Shape ShapeFor(const RunOptions& options) {
  Shape shape;
  shape.bed = corpus::Testbed::Trec4Options(1.0);
  shape.bed.min_db_docs = 800;
  shape.bed.max_db_docs = 2400;
  if (options.smoke) {
    shape.databases = 8;
    shape.queries = 60;
    shape.rk_queries = 30;
    shape.epochs = 2;
    shape.slice_requests = 60;
    shape.load = 2.0;
    shape.bed.min_db_docs = 500;
    shape.bed.max_db_docs = 800;
  }
  if (options.tiny_databases) {
    shape.bed.min_db_docs = 100;
    shape.bed.max_db_docs = 250;
  }
  // The federation is fixed; --seed draws the queries from its pool, the
  // sampler streams, the churn, the refresh picks and the arrivals.
  shape.bed.num_databases = shape.databases;
  shape.bed.num_queries = QueryPoolSize(shape.queries);
  shape.bed.keep_documents = true;  // churn regenerates databases from these
  ApplyBenchVocabulary(shape.bed);
  return shape;
}

corpus::ChurnOptions ChurnOptionsFor(uint64_t seed) {
  corpus::ChurnOptions o;
  o.seed = DeriveSeed(seed, 12);
  return o;
}

// Everything one epoch-loop pass produced that must repeat exactly.
struct PassOutcome {
  std::vector<double> rk_per_epoch;
  std::vector<uint64_t> rk_hashes;
  std::vector<broker::RequestResult> results;
  broker::BrokerStats stats;
  DecisionCounts counts;
  uint64_t batches = 0;
  size_t refreshes = 0;
  // Timings (excluded from the rerun comparison).
  std::vector<double> refresh_s;
  std::vector<double> reprobe_s;
  std::vector<double> distance_s;
  std::vector<double> publish_s;
  std::vector<double> slice_wall_s;
  double submit_s = 0.0;
  uint64_t selections = 0;
};

bool SameRequest(const broker::RequestResult& a,
                 const broker::RequestResult& b) {
  return a.disposition == b.disposition && a.downgraded == b.downgraded &&
         a.arrival_ms == b.arrival_ms && a.start_ms == b.start_ms &&
         a.finish_ms == b.finish_ms && a.service_ms == b.service_ms &&
         a.evaluations_completed == b.evaluations_completed &&
         a.ranking_hash == b.ranking_hash &&
         a.summary_epoch == b.summary_epoch;
}

}  // namespace

int RunChurnWorkload(const RunOptions& options) {
  const Shape shape = ShapeFor(options);
  const broker::BrokerOptions broker_options = PinnedBrokerOptions();
  PrintFingerprint(options, broker_options.num_workers);

  const corpus::Testbed bed(shape.bed);
  std::vector<selection::Query> queries;
  const std::vector<size_t> bed_query =
      DrawQueries(bed, shape.queries, DeriveSeed(options.seed, 11), queries);
  const selection::CoriScorer cori;
  const selection::BglossScorer bgloss;
  const selection::LmScorer lm;
  const std::vector<const selection::ScoringFunction*> scorers = {&cori,
                                                                   &bgloss,
                                                                   &lm};
  const core::SummaryMode mode = core::SummaryMode::kAdaptiveShrinkage;
  const sampling::QbsSampler sampler = MakeSampler(bed);
  core::MetasearcherOptions meta_options;
  meta_options.num_threads = 1;  // the broker owns the parallelism

  // Setup kSetups times: sample, build the epoch-0 snapshot, warm-up pass.
  std::vector<double> setup_s;
  std::vector<double> probe_s;
  std::vector<double> build_s;
  std::vector<std::unique_ptr<core::LiveMetasearcher>> lives;
  std::vector<uint64_t> warm_hashes;
  DecisionCounts warm_counts;
  uint64_t queries_sent = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // The closed-loop client serves the first setup's epoch-0 snapshot in
  // windows spread over the run (after each setup and after each
  // epoch-loop pass), each topping the serving time up to its share of
  // --seconds, so one noisy stretch of the machine cannot set every sample.
  // That snapshot is never refreshed, so every pass does identical work.
  ClosedLoop loop(queries.size(), options.trace);
  constexpr size_t kWindows = kSetups + kPasses;
  size_t window = 0;
  std::shared_ptr<const core::Metasearcher> serving;
  const auto serve = [&]() {
    ++window;
    RunClosedLoopWindow(*serving, queries, scorers, mode, warm_hashes,
                        options.seconds * static_cast<double>(window) /
                            static_cast<double>(kWindows),
                        window == kWindows, loop);
  };
  for (size_t r = 0; r < kSetups; ++r) {
    // Only the last kPasses setups are kept: they start the epoch loops.
    if (lives.size() == kPasses) lives.erase(lives.begin());
    Gauge().Sample();
    SpanLog::Scope setup(Spans(), "setup", r);
    SpanLog::Scope probe(Spans(), "sampling.probe", r);
    Federation federation =
        SampleFederation(bed, sampler, DeriveSeed(options.seed, 13));
    probe_s.push_back(probe.End());
    SpanLog::Scope build(Spans(), "core.build", r);
    auto live = std::make_unique<core::LiveMetasearcher>(
        &bed.hierarchy(), std::move(federation.samples),
        std::move(federation.classifications), meta_options);
    build_s.push_back(build.End());
    const std::shared_ptr<const core::Metasearcher> snap = live->Snapshot();
    std::vector<uint64_t> hashes;
    const DecisionCounts before = DecisionCounts::Now();
    {
      SpanLog::Scope warm(Spans(), "setup.warm", r);
      for (size_t q = 0; q < queries.size(); ++q) {
        SpanLog::Scope select(Spans(), "core.select_databases", q);
        const core::Metasearcher::SelectionOutcome outcome =
            snap->SelectDatabases(queries[q], *scorers[q % scorers.size()],
                                  mode);
        select.End();
        if (!outcome.status.ok()) ++failed;
        hashes.push_back(HashRanking(outcome.ranking));
      }
    }
    const DecisionCounts counts = DecisionCounts::Now() - before;
    setup_s.push_back(setup.End());
    attempted += queries.size();
    if (r == 0) {
      warm_hashes = hashes;
      warm_counts = counts;
      queries_sent = federation.queries_sent;
    } else if (hashes != warm_hashes || !(counts == warm_counts)) {
      Fail("setup rerun %zu of seed %llu differs from the first", r,
           static_cast<unsigned long long>(options.seed));
    }
    lives.push_back(std::move(live));
    if (r == 0) serving = snap;
    serve();
  }

  broker::OpenLoopOptions load;
  load.arrival_rate_qps =
      PinnedArrivalQps(bed.num_databases(), mode, shape.load);
  load.seed = DeriveSeed(options.seed, 14);

  std::vector<PassOutcome> passes;
  std::shared_ptr<const core::Metasearcher> final_snapshot;
  BuildSplit publish_split;
  double replayed_publish_s = 0.0;
  for (size_t p = 0; p < kPasses; ++p) {
    core::LiveMetasearcher& live = *lives[p];
    corpus::ChurnTestbed churn(&bed, ChurnOptionsFor(options.seed));
    sampling::RefreshSchedulerOptions scheduler_options;
    scheduler_options.policy = sampling::RefreshPolicy::kRacing;
    scheduler_options.seed = DeriveSeed(options.seed, 15);
    sampling::RefreshScheduler scheduler(bed.num_databases(),
                                         scheduler_options);
    util::Rng streams(DeriveSeed(options.seed, 16));
    std::vector<summary::ContentSummary> last_probed;
    {
      const std::shared_ptr<const core::Metasearcher> snap = live.Snapshot();
      for (size_t i = 0; i < bed.num_databases(); ++i) {
        last_probed.push_back(snap->plain_summary(i));
      }
    }
    // Counted from before the broker exists: its dispatcher thread starts
    // the worker pool's loop asynchronously.
    const DecisionCounts before = DecisionCounts::Now();
    const uint64_t batches_before = CounterValue("broker.batches");
    broker::QueryBroker broker(&live, &cori, broker_options);
    broker::OpenLoopGenerator generator(load, queries.size());
    PassOutcome out;
    for (size_t epoch = 1; epoch <= shape.epochs; ++epoch) {
      SpanLog::Scope epoch_span(Spans(), "epoch", epoch);
      {
        // Drift, and the lazy index rebuilds it causes, stay outside the
        // refresh timer.
        SpanLog::Scope advance(Spans(), "corpus.advance", epoch);
        for (size_t db : churn.AdvanceEpoch()) (void)churn.live_database(db);
      }
      scheduler.BeginEpoch();
      Gauge().Sample();
      const std::shared_ptr<const core::Metasearcher> prior = live.Snapshot();
      SpanLog::Scope refresh(Spans(), "refresh", epoch);
      std::vector<core::SummaryUpdate> updates;
      SpanLog::Scope reprobe(Spans(), "sampling.reprobe", epoch);
      for (size_t slot = 0; slot < kRefreshBudget; ++slot) {
        const size_t db = scheduler.PickNext();
        if (db >= bed.num_databases()) break;
        util::Rng db_rng = streams.Fork();
        SpanLog::Scope probe_db(Spans(), "sampling.probe_db", db);
        core::SummaryUpdate update;
        update.database = db;
        update.sample = sampler.Sample(churn.live_database(db), db_rng);
        update.classification = bed.directory_category_of(db);
        updates.push_back(std::move(update));
      }
      out.reprobe_s.push_back(reprobe.End());
      SpanLog::Scope distance(Spans(), "summary.distance", epoch);
      for (const core::SummaryUpdate& u : updates) {
        scheduler.ReportDrift(u.database,
                              summary::SummaryDistance(last_probed[u.database],
                                                       u.sample.summary));
        last_probed[u.database] = u.sample.summary;
      }
      out.distance_s.push_back(distance.End());
      std::vector<size_t> changed;
      for (const core::SummaryUpdate& u : updates) {
        changed.push_back(u.database);
      }
      std::sort(changed.begin(), changed.end());
      SpanLog::Scope publish(Spans(), "core.publish", epoch);
      const util::Status status = live.ApplyRefresh(std::move(updates));
      out.publish_s.push_back(publish.End());
      out.refresh_s.push_back(refresh.End());
      if (!status.ok()) {
        Fail("refresh at epoch %zu: %s", epoch, status.message().c_str());
      }
      ++out.refreshes;
      const std::shared_ptr<const core::Metasearcher> snap = live.Snapshot();
      if (options.trace && p == 0 && epoch == shape.epochs) {
        publish_split = ReplayBuild(*snap, prior.get(), changed);
        replayed_publish_s = out.publish_s.back();
      }

      Gauge().Sample();
      out.slice_wall_s.push_back(
          RunBrokerSlice(broker, generator, queries, shape.slice_requests,
                         epoch, &out.submit_s));

      SpanLog::Scope quality(Spans(), "quality", epoch);
      double rk_sum = 0.0;
      size_t rk_count = 0;
      for (size_t q = 0; q < shape.rk_queries; ++q) {
        std::vector<size_t> relevant(bed.num_databases());
        size_t total = 0;
        for (size_t d = 0; d < bed.num_databases(); ++d) {
          relevant[d] = churn.CountRelevant(bed_query[q], d);
          total += relevant[d];
        }
        SpanLog::Scope select(Spans(), "core.select_databases", q);
        const core::Metasearcher::SelectionOutcome outcome =
            snap->SelectDatabases(queries[q], cori, mode);
        select.End();
        ++out.selections;
        if (!outcome.status.ok()) ++failed;
        out.rk_hashes.push_back(HashRanking(outcome.ranking));
        if (total == 0) continue;
        rk_sum += selection::RkScore(outcome.ranking, relevant, kRkK);
        ++rk_count;
      }
      out.rk_per_epoch.push_back(
          rk_count > 0 ? rk_sum / static_cast<double>(rk_count) : 0.0);
    }
    out.stats = broker.ComputeStats();
    out.results = broker.results();
    out.batches = CounterValue("broker.batches") - batches_before;
    out.counts = DecisionCounts::Now() - before;
    broker.Shutdown();

    // Output checks: every request resolves, none is cancelled, and every
    // admitted request answers within its deadline.
    if (out.stats.resolved() != out.results.size() ||
        out.stats.cancelled != 0) {
      Fail("pass %zu: %zu of %zu requests resolved, %zu cancelled", p,
           out.stats.resolved(), out.results.size(), out.stats.cancelled);
    }
    for (const broker::RequestResult& r : out.results) {
      if (r.admitted() && r.e2e_ms() > broker_options.deadline_ms + 1e-6) {
        Fail("pass %zu: admitted request answered after %.3f ms (deadline "
             "%.1f ms)",
             p, r.e2e_ms(), broker_options.deadline_ms);
      }
    }
    if (p == 0) final_snapshot = live.Snapshot();
    serve();
    passes.push_back(std::move(out));
  }
  attempted += loop.attempted;
  failed += loop.failed;

  // The rerun pass must reproduce the first exactly.
  const PassOutcome& first = passes[0];
  for (size_t p = 1; p < passes.size(); ++p) {
    const PassOutcome& again = passes[p];
    std::string differs;
    if (again.rk_per_epoch != first.rk_per_epoch) differs += " rk_3";
    if (again.rk_hashes != first.rk_hashes) differs += " R_3-rankings";
    if (!(again.counts == first.counts)) differs += " decision-counts";
    bool same_requests = again.results.size() == first.results.size();
    for (size_t i = 0; same_requests && i < first.results.size(); ++i) {
      same_requests = SameRequest(first.results[i], again.results[i]);
    }
    if (!same_requests) differs += " broker-requests";
    if (!differs.empty()) {
      for (const PassOutcome* pass : {&first, &again}) {
        const DecisionCounts& c = pass->counts;
        std::fprintf(stderr,
                     "counts: evaluations %llu shrunk %llu gate_complete %llu "
                     "gate_mixed %llu draws %llu hits %llu misses %llu "
                     "evictions %llu stale %llu pooled %llu inline %llu\n",
                     static_cast<unsigned long long>(c.evaluations),
                     static_cast<unsigned long long>(c.chose_shrunk),
                     static_cast<unsigned long long>(c.gate_complete_sample),
                     static_cast<unsigned long long>(c.gate_no_mixed_evidence),
                     static_cast<unsigned long long>(c.draws),
                     static_cast<unsigned long long>(c.posterior_hits),
                     static_cast<unsigned long long>(c.posterior_misses),
                     static_cast<unsigned long long>(c.posterior_evictions),
                     static_cast<unsigned long long>(c.posterior_stale_misses),
                     static_cast<unsigned long long>(c.pool_loops_pooled),
                     static_cast<unsigned long long>(c.pool_loops_inline));
      }
      Fail("epoch-loop rerun %zu of seed %llu differs from the first in:%s",
           p, static_cast<unsigned long long>(options.seed), differs.c_str());
    }
  }

  // Coverage: refresh, epoch-keyed eviction and broker degradation must
  // all have happened.
  if (first.refreshes == 0) Fail("churn-broker published no refresh");
  if (first.counts.posterior_evictions == 0) {
    Fail("churn-broker evicted no posterior grids (are the databases "
         "larger than the 300-document sample?)");
  }
  if (first.stats.served_degraded == 0) {
    Fail("churn-broker served no degraded request");
  }
  // ...and the closed loop must run the adaptive path it stands for.
  if (warm_counts.chose_shrunk == 0) Fail("churn-broker never chose R(D)");
  if (warm_counts.posterior_misses == 0) {
    Fail("churn-broker never built a posterior");
  }
  if (warm_counts.gate_complete_sample == warm_counts.evaluations) {
    Fail("every adaptive evaluation exited at gate_complete_sample");
  }

  // The passes do identical work epoch by epoch and slice by slice, so
  // each epoch's refresh and each slice keep their best wall time across
  // passes, as the closed-loop client keeps each query's.
  const auto best_across_passes =
      [&](std::vector<double> PassOutcome::*field) {
        std::vector<double> best = first.*field;
        for (const PassOutcome& pass : passes) {
          for (size_t e = 0; e < best.size(); ++e) {
            best[e] = std::min(best[e], (pass.*field)[e]);
          }
        }
        return best;
      };
  const std::vector<double> refresh_s =
      best_across_passes(&PassOutcome::refresh_s);
  const std::vector<double> reprobe_s =
      best_across_passes(&PassOutcome::reprobe_s);
  const std::vector<double> distance_s =
      best_across_passes(&PassOutcome::distance_s);
  const std::vector<double> publish_s =
      best_across_passes(&PassOutcome::publish_s);
  double slice_wall_s = 0.0;
  for (double s : best_across_passes(&PassOutcome::slice_wall_s)) {
    slice_wall_s += s;
  }
  const uint64_t served = first.stats.served();
  for (const PassOutcome& pass : passes) {
    attempted += pass.stats.submitted + pass.selections;
    failed += pass.stats.shed() + pass.stats.expired();
  }
  double rk_mean = 0.0;
  for (double rk : first.rk_per_epoch) rk_mean += rk;
  rk_mean /= static_cast<double>(first.rk_per_epoch.size());

  Report report;
  if (!options.trace) {
    report.AddScaled("setup_s", Median(setup_s), "s", setup_s.size());
    AddServingMetrics(report, loop, /*goodput=*/false);
    report.AddScaled("goodput_qps", static_cast<double>(served) / slice_wall_s,
                     "1/s", served);
    report.AddScaled("refresh_s", Median(refresh_s), "s", refresh_s.size());
    report.Add("rk_3", rk_mean, "ratio", first.rk_per_epoch.size());
    report.Add("peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB");
    report.AddInfo("failed_share",
                   static_cast<double>(failed) / static_cast<double>(attempted),
                   "ratio");
    report.AddInfo("arrival_qps_virtual", load.arrival_rate_qps, "1/s");
  } else {
    report.AddScaled("sampling.probe_s", Median(probe_s), "s", probe_s.size());
    report.AddCount("sampling.queries_sent", queries_sent, "queries");
    report.AddScaled("sampling.reprobe_s", Median(reprobe_s), "s",
                     reprobe_s.size());
    report.AddScaled("summary.distance_s", Median(distance_s), "s",
                     distance_s.size());
    report.AddScaled("core.build_s", Median(build_s), "s", build_s.size());
    report.AddScaled("core.publish_s", Median(publish_s), "s",
                     publish_s.size());
    AddBuildSplitMetrics(report, publish_split, replayed_publish_s);

    QueryReplayer replayer(final_snapshot.get(), mode, nullptr);
    AddQueryLayerMetrics(report, replayer, queries, scorers, kReplayPasses,
                         /*adaptive_program=*/true);
    AddDecisionMetrics(report, first.counts);
    AddBrokerMetrics(report, first.stats, first.results, first.batches,
                     first.submit_s);
    report.Add("failed_share",
               static_cast<double>(failed) / static_cast<double>(attempted),
               "ratio", attempted);
    AddTraceOverhead(report, loop);
    const std::string path = SpansPath(options);
    if (!Spans().WriteJson(path)) {
      std::fprintf(stderr, "note: could not write %s\n", path.c_str());
    }
  }
  PrintResult(report, true, attempted, failed);
  return 0;
}

}  // namespace perfbench

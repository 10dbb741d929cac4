// The two static workloads: a fixed federation sampled once per setup and
// served by a Metasearcher.
//
//   short-plain    TREC6-like databases, 2-5 term queries, plain summaries,
//                  2-thread fan-out. Statistics fill, scoring, ranking and
//                  the pool do all the work; the adaptive layers do none.
//   long-adaptive  TREC4-like databases, 8-26 term queries, adaptive
//                  shrinkage, serial. Uncertainty evaluation and posterior
//                  lookups dominate.
//
// Both round-robin CORI, bGlOSS and LM over the queries.

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "fedsearch/core/metasearcher.h"
#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/lm.h"
#include "fedsearch/selection/rk_metric.h"
#include "fedsearch/summary/metrics.h"
#include "layers.h"

namespace perfbench {

namespace {

constexpr size_t kSetups = 3;  // setup_s is their median
// refresh_s is the best of kRefreshesPerCycle refreshes after each setup
// and as many after the output checks.
constexpr size_t kRefreshesPerCycle = 2;
constexpr size_t kRefreshBudget = 4;
constexpr size_t kReplayPasses = 2;
constexpr size_t kBrokerRequests = 400;
constexpr size_t kRkK = 3;

struct Shape {
  core::SummaryMode mode = core::SummaryMode::kPlain;
  size_t threads = 1;
  size_t databases = 50;
  size_t queries = 1000;
  corpus::TestbedOptions bed;
};

Shape ShapeFor(const RunOptions& options) {
  Shape shape;
  if (options.workload == "short-plain") {
    shape.mode = core::SummaryMode::kPlain;
    shape.threads = 2;
    shape.bed = corpus::Testbed::Trec6Options(0.05);  // 300-1000 docs
  } else {
    shape.mode = core::SummaryMode::kAdaptiveShrinkage;
    shape.threads = 1;
    shape.databases = 20;  // fewer than short-plain: see README.md
    shape.bed = corpus::Testbed::Trec4Options(0.1);  // 300-1600 docs
  }
  if (options.smoke) {
    shape.databases = 12;
    shape.queries = 60;
  }
  // The federation is fixed (the data set's own testbed seed); --seed
  // draws the queries from its pool, the sampler streams, the refresh
  // picks and the broker arrivals. See README.md.
  shape.bed.num_databases = shape.databases;
  shape.bed.num_queries = QueryPoolSize(shape.queries);
  ApplyBenchVocabulary(shape.bed);
  return shape;
}

// What one warm-up pass produced: per-query ranking hashes, R_k and the
// decision/cache counter deltas. Identical across reruns of a seed.
struct WarmOutcome {
  std::vector<uint64_t> hashes;
  double rk_sum = 0.0;
  size_t rk_queries = 0;
  size_t shrinkage_applied = 0;
  uint64_t failed = 0;
  DecisionCounts counts;

  bool operator==(const WarmOutcome& o) const {
    return hashes == o.hashes && rk_sum == o.rk_sum &&
           rk_queries == o.rk_queries &&
           shrinkage_applied == o.shrinkage_applied && failed == o.failed &&
           counts == o.counts;
  }
};

WarmOutcome WarmPass(const core::Metasearcher& meta,
                     const std::vector<selection::Query>& queries,
                     const std::vector<const selection::ScoringFunction*>&
                         scorers,
                     core::SummaryMode mode,
                     const std::vector<std::vector<size_t>>& relevant) {
  SpanLog::Scope span(Spans(), "setup.warm");
  WarmOutcome out;
  const DecisionCounts before = DecisionCounts::Now();
  for (size_t q = 0; q < queries.size(); ++q) {
    SpanLog::Scope select(Spans(), "core.select_databases", q);
    const core::Metasearcher::SelectionOutcome outcome =
        meta.SelectDatabases(queries[q], *scorers[q % scorers.size()], mode);
    select.End();
    if (!outcome.status.ok()) ++out.failed;
    out.hashes.push_back(HashRanking(outcome.ranking));
    out.shrinkage_applied += outcome.shrinkage_applied;
    size_t total_relevant = 0;
    for (size_t r : relevant[q]) total_relevant += r;
    if (total_relevant > 0) {
      out.rk_sum += selection::RkScore(outcome.ranking, relevant[q], kRkK);
      ++out.rk_queries;
    }
  }
  out.counts = DecisionCounts::Now() - before;
  return out;
}

std::vector<sampling::SampleResult> CopySamples(
    const core::Metasearcher& meta) {
  std::vector<sampling::SampleResult> samples;
  for (size_t i = 0; i < meta.num_databases(); ++i) {
    samples.push_back(meta.sample(i));
  }
  return samples;
}

std::vector<corpus::CategoryId> Classifications(
    const core::Metasearcher& meta) {
  std::vector<corpus::CategoryId> out;
  for (size_t i = 0; i < meta.num_databases(); ++i) {
    out.push_back(meta.classification(i));
  }
  return out;
}

}  // namespace

int RunStaticWorkload(const RunOptions& options) {
  const Shape shape = ShapeFor(options);
  PrintFingerprint(options, shape.threads);

  // Workload generation (outside every timer): testbed, distinct queries
  // and their relevance judgments.
  const corpus::Testbed bed(shape.bed);
  std::vector<selection::Query> queries;
  const std::vector<size_t> bed_query =
      DrawQueries(bed, shape.queries, DeriveSeed(options.seed, 1), queries);
  std::vector<std::vector<size_t>> relevant;
  for (size_t q : bed_query) {
    std::vector<size_t> r(bed.num_databases());
    for (size_t d = 0; d < bed.num_databases(); ++d) {
      r[d] = bed.CountRelevant(q, d);
    }
    relevant.push_back(std::move(r));
  }
  const selection::CoriScorer cori;
  const selection::BglossScorer bgloss;
  const selection::LmScorer lm;
  const std::vector<const selection::ScoringFunction*> scorers = {&cori,
                                                                   &bgloss,
                                                                   &lm};
  const sampling::QbsSampler sampler = MakeSampler(bed);
  core::MetasearcherOptions meta_options;
  meta_options.num_threads = shape.threads;

  // Setup, kSetups times from the same seed: sample the federation, build
  // the snapshot, make one warm-up pass. Every rerun must reproduce the
  // first one exactly.
  std::vector<double> setup_s;
  std::vector<double> probe_s;
  std::vector<double> build_s;
  std::unique_ptr<core::Metasearcher> meta;
  WarmOutcome warm;
  uint64_t queries_sent = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // The closed-loop client's passes are spread over the whole run: a
  // window after each setup, after each refresh and after the output
  // checks (all on identical snapshots), each topping the serving time up
  // to its share of --seconds.
  ClosedLoop loop(queries.size(), options.trace);
  constexpr size_t kWindows = (kSetups + 1) * (1 + kRefreshesPerCycle);
  size_t window = 0;
  const auto serve = [&](const core::Metasearcher& snapshot) {
    ++window;
    RunClosedLoopWindow(snapshot, queries, scorers, shape.mode, warm.hashes,
                        options.seconds * static_cast<double>(window) /
                            static_cast<double>(kWindows),
                        window == kWindows, loop);
  };

  // Refresh: re-probe kRefreshBudget databases with fresh streams and
  // republish through the Metasearcher constructor's incremental path. A
  // static federation does not drift; this is the periodic re-sampling
  // cost. The repetitions, spread over the run, do identical work (same
  // databases, same streams, identical priors), so each timing keeps its
  // best repetition, like the closed-loop client keeps each query's best
  // pass.
  std::vector<double> refresh_s;
  std::vector<double> reprobe_s;
  std::vector<double> distance_s;
  std::vector<double> publish_s;
  std::vector<size_t> changed;
  {
    util::Rng pick(DeriveSeed(options.seed, 3));
    while (changed.size() < std::min(kRefreshBudget, bed.num_databases())) {
      const size_t db = pick.NextBounded(bed.num_databases());
      if (std::find(changed.begin(), changed.end(), db) == changed.end()) {
        changed.push_back(db);
      }
    }
    std::sort(changed.begin(), changed.end());
  }
  double first_distance = 0.0;
  const auto refresh = [&](size_t r) {
    Gauge().Sample();
    std::vector<sampling::SampleResult> samples = CopySamples(*meta);
    util::Rng streams(DeriveSeed(options.seed, 4));
    SpanLog::Scope refresh_span(Spans(), "refresh", r);
    SpanLog::Scope reprobe(Spans(), "sampling.reprobe", r);
    std::vector<sampling::SampleResult> fresh;
    for (size_t db : changed) {
      util::Rng db_rng = streams.Fork();
      SpanLog::Scope probe_db(Spans(), "sampling.probe_db", db);
      fresh.push_back(sampler.Sample(bed.database(db), db_rng));
    }
    reprobe_s.push_back(reprobe.End());
    double distance = 0.0;
    SpanLog::Scope distance_span(Spans(), "summary.distance", r);
    for (size_t k = 0; k < changed.size(); ++k) {
      distance += summary::SummaryDistance(meta->plain_summary(changed[k]),
                                           fresh[k].summary);
    }
    distance_s.push_back(distance_span.End());
    if (r == 0) first_distance = distance;
    if (!(distance >= 0.0) || distance != first_distance) {
      Fail("refresh %zu: summary distance %.17g, first refresh %.17g", r,
           distance, first_distance);
    }
    for (size_t k = 0; k < changed.size(); ++k) {
      samples[changed[k]] = std::move(fresh[k]);
    }
    core::MetasearcherOptions publish_options = meta_options;
    publish_options.prior = meta.get();
    publish_options.changed_databases = changed;
    SpanLog::Scope publish(Spans(), "core.publish", r);
    const core::Metasearcher next(&bed.hierarchy(), std::move(samples),
                                  Classifications(*meta), publish_options);
    publish_s.push_back(publish.End());
    refresh_s.push_back(refresh_span.End());
  };
  // After each setup and after the output checks: serve, then refresh and
  // serve kRefreshesPerCycle times.
  const auto cycle = [&]() {
    serve(*meta);
    for (size_t k = 0; k < kRefreshesPerCycle; ++k) {
      refresh(refresh_s.size());
      serve(*meta);
    }
  };
  for (size_t r = 0; r < kSetups; ++r) {
    meta.reset();
    Gauge().Sample();
    SpanLog::Scope setup(Spans(), "setup", r);
    SpanLog::Scope probe(Spans(), "sampling.probe", r);
    Federation federation =
        SampleFederation(bed, sampler, DeriveSeed(options.seed, 2));
    probe_s.push_back(probe.End());
    SpanLog::Scope build(Spans(), "core.build", r);
    meta = std::make_unique<core::Metasearcher>(
        &bed.hierarchy(), std::move(federation.samples),
        std::move(federation.classifications), meta_options);
    build_s.push_back(build.End());
    WarmOutcome outcome =
        WarmPass(*meta, queries, scorers, shape.mode, relevant);
    setup_s.push_back(setup.End());
    attempted += queries.size();
    failed += outcome.failed;
    if (r == 0) {
      warm = std::move(outcome);
      queries_sent = federation.queries_sent;
    } else if (!(outcome == warm)) {
      Fail("setup rerun %zu of seed %llu differs from the first (rk_3, "
           "ranking hashes or decision counts)",
           r, static_cast<unsigned long long>(options.seed));
    }
    cycle();
  }

  // short-plain: the 2-thread rankings must match a serial build bit for
  // bit. (The serial snapshot also drives the traced broker replay.)
  std::unique_ptr<core::Metasearcher> serial;
  if (shape.threads > 1) {
    core::MetasearcherOptions serial_options;
    serial_options.num_threads = 1;
    serial = std::make_unique<core::Metasearcher>(
        &bed.hierarchy(), CopySamples(*meta), Classifications(*meta),
        serial_options);
    const WarmOutcome serial_warm =
        WarmPass(*serial, queries, scorers, shape.mode, relevant);
    attempted += queries.size();
    for (size_t q = 0; q < queries.size(); ++q) {
      if (serial_warm.hashes[q] != warm.hashes[q]) {
        Fail("query %zu: the %zu-thread ranking differs from the serial one",
             q, shape.threads);
      }
    }
  }

  // Coverage: the workload must exercise the path it is named after.
  if (shape.mode == core::SummaryMode::kPlain) {
    if (warm.counts.evaluations != 0) {
      Fail("short-plain ran %llu adaptive evaluations",
           static_cast<unsigned long long>(warm.counts.evaluations));
    }
    if (warm.counts.pool_loops_pooled == 0) {
      Fail("short-plain never fanned out over the thread pool");
    }
  } else {
    if (warm.counts.chose_shrunk == 0) Fail("long-adaptive never chose R(D)");
    if (warm.counts.posterior_misses == 0) {
      Fail("long-adaptive never built a posterior");
    }
    if (warm.counts.gate_complete_sample == warm.counts.evaluations) {
      Fail("every adaptive evaluation exited at gate_complete_sample");
    }
  }

  cycle();
  attempted += loop.attempted;
  failed += loop.failed;

  Report report;
  if (!options.trace) {
    report.AddScaled("setup_s", Median(setup_s), "s", setup_s.size());
    AddServingMetrics(report, loop, /*goodput=*/true);
    report.AddScaled("refresh_s", Best(refresh_s), "s", refresh_s.size());
    report.Add("rk_3", warm.rk_sum / static_cast<double>(warm.rk_queries),
               "ratio", warm.rk_queries);
    report.Add("peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB");
    report.AddInfo("failed_share",
                   static_cast<double>(failed) / static_cast<double>(attempted),
                   "ratio");
    report.AddInfo("serving_passes", static_cast<double>(loop.passes), "count",
                   true);
  } else {
    report.AddScaled("sampling.probe_s", Median(probe_s), "s", probe_s.size());
    report.AddCount("sampling.queries_sent", queries_sent, "queries");
    report.AddScaled("sampling.reprobe_s", Best(reprobe_s), "s",
                     reprobe_s.size());
    report.AddScaled("summary.distance_s", Best(distance_s), "s",
                     distance_s.size());
    const double build = Median(build_s);
    report.AddScaled("core.build_s", build, "s", build_s.size());
    report.AddScaled("core.publish_s", Best(publish_s), "s", publish_s.size());
    AddBuildSplitMetrics(report, ReplayBuild(*meta, nullptr, {}), build);

    std::unique_ptr<util::ThreadPool> pool;
    if (shape.threads > 1) {
      pool = std::make_unique<util::ThreadPool>(shape.threads);
    }
    QueryReplayer replayer(meta.get(), shape.mode, pool.get());
    AddQueryLayerMetrics(report, replayer, queries, scorers, kReplayPasses,
                         shape.mode == core::SummaryMode::kAdaptiveShrinkage);
    AddDecisionMetrics(report, warm.counts);

    // Broker replay: one open-loop slice over the serial snapshot at the
    // full-quality sustainable rate.
    const core::Metasearcher& broker_meta = serial ? *serial : *meta;
    broker::BrokerOptions broker_options = PinnedBrokerOptions();
    broker_options.full_mode = shape.mode;
    const double arrival_qps =
        PinnedArrivalQps(bed.num_databases(), shape.mode, 1.0);
    broker::OpenLoopOptions load;
    load.arrival_rate_qps = arrival_qps;
    load.seed = DeriveSeed(options.seed, 5);
    broker::OpenLoopGenerator generator(load, queries.size());
    const uint64_t batches_before = CounterValue("broker.batches");
    double submit_seconds = 0.0;
    broker::QueryBroker broker(&broker_meta, &cori, broker_options);
    (void)RunBrokerSlice(broker, generator, queries, kBrokerRequests, 0,
                         &submit_seconds);
    const broker::BrokerStats stats = broker.ComputeStats();
    AddBrokerMetrics(report, stats, broker.results(),
                     CounterValue("broker.batches") - batches_before,
                     submit_seconds);
    broker.Shutdown();
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

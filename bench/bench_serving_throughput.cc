// Serving-layer throughput: queries/sec of Metasearcher::SelectDatabases
// with one thread versus N threads, for each summary mode, plus
// posterior-cache hit rates. Before timing anything the bench verifies
// the parallel rankings are bit-identical to the serial ones — a speedup
// that changes results would be a bug, not a feature.
//
// Usage:
//   bench_serving_throughput [--smoke] [--threads N] [--json out.json]
//                            [--trace out.json] [--trace-out trace.json]
//
// --smoke lowers the repetition floor to three passes (CI sanity check;
// every timed run still lasts >= 1 s so the gated best-pass CPU numbers
// have passes to choose from); --threads sets the parallel thread count
// N (default: the hardware concurrency, at least 1); --json writes a
// schema-versioned BENCH report (see harness/report.h) consumed by
// tools/check_bench_regression.py; --trace enables span tracing and
// writes the span timeline as JSON; --trace-out writes the same spans as
// a Chrome-trace/Perfetto timeline (load in chrome://tracing or feed to
// tools/analyze_timeline.py).
// FEDSEARCH_SCALE / FEDSEARCH_SEED apply as in every bench.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/util/metrics.h"
#include "fedsearch/util/trace.h"
#include "harness/experiment.h"
#include "harness/report.h"

using namespace fedsearch;

namespace {

struct TimingResult {
  double wall_qps = 0.0;  // full-window wall-clock throughput; load-sensitive
  double cpu_qps = 0.0;   // best-pass CPU-time throughput; gateable
  size_t queries = 0;
};

// Times both on the wall clock (what a user experiences) and on CPU time
// (what this code costs). The regression gate compares only the CPU-time
// numbers, built from each query's *minimum* CPU cost across passes:
// interference can only make an execution more expensive — descheduling
// stops the wall clock's meaning, and even CPU time inflates under cache
// pollution and frequency scaling — so one quiet execution per query over
// many passes recovers what the code itself costs. (The same estimator
// underlies every serious timing harness; see e.g. timeit's min-of-runs.)
TimingResult TimeSelection(const core::Metasearcher& meta,
                           const std::vector<selection::Query>& queries,
                           const selection::ScoringFunction& scorer,
                           core::SummaryMode mode, size_t min_repetitions,
                           uint64_t min_elapsed_ns,
                           util::Histogram* wall_latency_ns,
                           util::Histogram* cpu_latency_ns) {
  constexpr uint64_t kNoTime = ~uint64_t{0};
  // One untimed pass warms the posterior cache the way a serving process
  // would be warm after its first few requests.
  for (const selection::Query& q : queries) {
    meta.SelectDatabases(q, scorer, mode);
  }
  // Repeat whole passes until both floors are met: fast modes finish one
  // pass in tens of milliseconds, where scheduler jitter dominates any
  // single measurement — the repetitions are what give every query a
  // chance at an interference-free execution.
  const uint64_t start = util::MonotonicNanos();
  size_t served = 0;
  size_t reps = 0;
  uint64_t elapsed = 0;
  // Per-query floors: process-CPU cost (includes pool work; feeds qps)
  // and calling-thread CPU cost (serial runs only; feeds the latency
  // percentiles).
  std::vector<uint64_t> min_cpu_ns(queries.size(), kNoTime);
  std::vector<uint64_t> min_lat_ns(queries.size(), kNoTime);
  do {
    for (size_t i = 0; i < queries.size(); ++i) {
      const uint64_t q_wall = util::MonotonicNanos();
      const uint64_t q_proc = util::ProcessCpuNanos();
      const uint64_t q_thread = util::ThreadCpuNanos();
      const auto outcome = meta.SelectDatabases(queries[i], scorer, mode);
      if (outcome.databases_considered == 0) std::abort();  // keep it live
      const uint64_t proc_ns = util::ProcessCpuNanos() - q_proc;
      if (proc_ns < min_cpu_ns[i]) min_cpu_ns[i] = proc_ns;
      if (cpu_latency_ns != nullptr) {
        const uint64_t lat_ns = util::ThreadCpuNanos() - q_thread;
        if (lat_ns < min_lat_ns[i]) min_lat_ns[i] = lat_ns;
      }
      if (wall_latency_ns != nullptr) {
        wall_latency_ns->Record(util::MonotonicNanos() - q_wall);
      }
      ++served;
    }
    ++reps;
    elapsed = util::MonotonicNanos() - start;
  } while (reps < min_repetitions || elapsed < min_elapsed_ns);
  if (cpu_latency_ns != nullptr) {
    for (uint64_t v : min_lat_ns) cpu_latency_ns->Record(v);
  }
  uint64_t min_total_cpu_ns = 0;
  for (uint64_t v : min_cpu_ns) min_total_cpu_ns += v;
  const double wall_s = static_cast<double>(elapsed) * 1e-9;
  const double cpu_s = static_cast<double>(min_total_cpu_ns) * 1e-9;
  TimingResult r;
  r.queries = served;
  r.wall_qps = wall_s > 0.0 ? static_cast<double>(served) / wall_s : 0.0;
  r.cpu_qps =
      cpu_s > 0.0 ? static_cast<double>(queries.size()) / cpu_s : 0.0;
  return r;
}

bool VerifyBitIdentical(const core::Metasearcher& serial,
                        const core::Metasearcher& parallel,
                        const std::vector<selection::Query>& queries,
                        const selection::ScoringFunction& scorer,
                        core::SummaryMode mode) {
  for (const selection::Query& q : queries) {
    const auto a = serial.SelectDatabases(q, scorer, mode);
    const auto b = parallel.SelectDatabases(q, scorer, mode);
    if (a.shrinkage_applied != b.shrinkage_applied ||
        a.category_fallbacks != b.category_fallbacks ||
        a.ranking.size() != b.ranking.size()) {
      return false;
    }
    for (size_t i = 0; i < a.ranking.size(); ++i) {
      if (a.ranking[i].database != b.ranking[i].database ||
          a.ranking[i].score != b.ranking[i].score) {
        return false;
      }
    }
  }
  return true;
}

const char* Name(core::SummaryMode mode) {
  switch (mode) {
    case core::SummaryMode::kPlain:
      return "plain";
    case core::SummaryMode::kAdaptiveShrinkage:
      return "adaptive";
    case core::SummaryMode::kUniversalShrinkage:
      return "universal";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  size_t threads = std::thread::hardware_concurrency();
  std::string json_path;
  std::string trace_path;
  std::string perfetto_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      perfetto_path = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      perfetto_path = argv[i] + 12;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads N] [--json out.json] "
                   "[--trace out.json] [--trace-out trace.json]\n",
                   argv[0]);
      return 2;
    }
  }
  if (threads < 1) threads = 1;
  // At least 3 passes even in smoke mode: the gated numbers come from the
  // best pass, and a minimum of one would leave slow modes best-of-one.
  const size_t repetitions = smoke ? 3 : 5;
  // Every timed run lasts at least this long regardless of mode speed.
  const uint64_t min_elapsed_ns = 1000000000;  // 1 s
  if (!trace_path.empty() || !perfetto_path.empty()) {
    util::Tracer::Global().set_enabled(true);
  }

  const bench::ExperimentConfig config = bench::ConfigFromEnv();
  const bench::DataSet dataset = bench::DataSet::kTrec4;
  const corpus::Testbed& bed = bench::GetTestbed(dataset, config);

  std::vector<selection::Query> queries;
  for (const corpus::TestQuery& tq : bed.queries()) {
    queries.push_back(selection::Query{bed.analyzer().Analyze(tq.text)});
  }

  core::MetasearcherOptions serial_options;
  serial_options.num_threads = 1;
  auto serial = bench::BuildMetasearcher(
      dataset,
      bench::SampleFederation(dataset, bench::SamplerKind::kQbs,
                              /*frequency_estimation=*/true, 0, config),
      config, serial_options);
  core::MetasearcherOptions parallel_options;
  parallel_options.num_threads = threads;
  auto parallel = bench::BuildMetasearcher(
      dataset,
      bench::SampleFederation(dataset, bench::SamplerKind::kQbs,
                              /*frequency_estimation=*/true, 0, config),
      config, parallel_options);

  std::printf("Serving throughput: %s, %zu databases, %zu queries, "
              "%zu repetitions\n",
              Name(dataset), serial->num_databases(), queries.size(),
              repetitions);
  std::printf("Threads: serial=1, parallel=%zu\n\n", parallel->num_threads());

  const selection::CoriScorer cori;
  const selection::BglossScorer bgloss;

  bench::BenchReport report("serving_throughput");
  report.SetConfig(config);
  report.AddConfig("threads", static_cast<double>(parallel->num_threads()));
  report.AddConfig("repetitions", static_cast<double>(repetitions));
  report.AddConfig("min_time_s", static_cast<double>(min_elapsed_ns) * 1e-9);
  report.AddConfig("databases", static_cast<double>(serial->num_databases()));
  report.AddConfig("queries", static_cast<double>(queries.size()));
  report.AddConfig("dataset", std::string(Name(dataset)));

  for (core::SummaryMode mode :
       {core::SummaryMode::kPlain, core::SummaryMode::kUniversalShrinkage,
        core::SummaryMode::kAdaptiveShrinkage}) {
    for (const selection::ScoringFunction* scorer :
         std::initializer_list<const selection::ScoringFunction*>{&cori,
                                                                  &bgloss}) {
      if (!VerifyBitIdentical(*serial, *parallel, queries, *scorer, mode)) {
        std::fprintf(stderr,
                     "FAIL: %s/%s parallel ranking differs from serial\n",
                     Name(mode), std::string(scorer->name()).c_str());
        return 1;
      }
      // The serial run owns the gated per-query CPU latency histogram:
      // with one thread every query runs entirely on the calling thread,
      // so ThreadCpuNanos sees all of it. The parallel run records wall
      // latency — informational, since pool work escapes the thread clock.
      util::Histogram cpu_latency_ns;
      util::Histogram wall_latency_ns;
      const TimingResult one =
          TimeSelection(*serial, queries, *scorer, mode, repetitions,
                        min_elapsed_ns, /*wall_latency_ns=*/nullptr,
                        &cpu_latency_ns);
      const TimingResult many =
          TimeSelection(*parallel, queries, *scorer, mode, repetitions,
                        min_elapsed_ns, &wall_latency_ns,
                        /*cpu_latency_ns=*/nullptr);
      std::printf("%-9s %-7s %10.1f qps (1 thread) %10.1f qps (%zu threads)"
                  "  speedup %.2fx  cpu-p95 %.0f us  [bit-identical]\n",
                  Name(mode), std::string(scorer->name()).c_str(),
                  one.wall_qps, many.wall_qps, parallel->num_threads(),
                  one.wall_qps > 0.0 ? many.wall_qps / one.wall_qps : 0.0,
                  cpu_latency_ns.Percentile(95.0) / 1000.0);
      std::fflush(stdout);

      bench::BenchReport::Scenario& scenario = report.AddScenario(
          std::string(Name(mode)) + "/" + std::string(scorer->name()));
      // Gated keys (qps*, p95*) come from CPU time; wall numbers are
      // prefixed so the gate treats them as informational.
      scenario.Add("qps_serial", one.cpu_qps);
      scenario.Add("qps_parallel", many.cpu_qps);
      scenario.Add("wall_qps_serial", one.wall_qps);
      scenario.Add("wall_qps_parallel", many.wall_qps);
      scenario.Add("speedup",
                   one.wall_qps > 0.0 ? many.wall_qps / one.wall_qps : 0.0);
      bench::AppendLatencyPercentilesUs(scenario, cpu_latency_ns);
      scenario.Add("wall_p95_us", wall_latency_ns.Percentile(95.0) / 1000.0);
    }
  }

  const auto serial_stats = serial->posterior_cache_stats();
  const auto parallel_stats = parallel->posterior_cache_stats();
  std::printf("\nPosterior cache: serial %llu hits / %llu misses "
              "(%.1f%% hit rate), parallel %llu hits / %llu misses "
              "(%.1f%% hit rate)\n",
              static_cast<unsigned long long>(serial_stats.hits),
              static_cast<unsigned long long>(serial_stats.misses),
              100.0 * serial_stats.hit_rate(),
              static_cast<unsigned long long>(parallel_stats.hits),
              static_cast<unsigned long long>(parallel_stats.misses),
              100.0 * parallel_stats.hit_rate());

  bench::BenchReport::Scenario& cache_scenario =
      report.AddScenario("posterior_cache");
  cache_scenario.Add("hit_rate_serial", serial_stats.hit_rate());
  cache_scenario.Add("hit_rate_parallel", parallel_stats.hit_rate());
  cache_scenario.Add("entries_serial",
                     static_cast<double>(serial->posterior_cache_size()));
  cache_scenario.Add("entries_parallel",
                     static_cast<double>(parallel->posterior_cache_size()));

  if (!json_path.empty() && !report.WriteFile(json_path)) return 1;
  if (!trace_path.empty()) {
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
      return 1;
    }
    const std::string json = util::Tracer::Global().ToJson(2);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  if (!perfetto_path.empty()) {
    std::FILE* f = std::fopen(perfetto_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   perfetto_path.c_str());
      return 1;
    }
    const std::string json = util::Tracer::Global().ToPerfettoJson(1);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return 0;
}

// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// index search, EM mixture-weight fitting, shrunk-summary lookups, the
// document-frequency posterior, and QBS sampling throughput.
//
// In addition to the standard google-benchmark flags, the custom main
// accepts:
//   --smoke          one fast repetition per benchmark (CI sanity check)
//   --json out.json  write a schema-versioned BENCH report (harness/report.h)

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fedsearch/core/adaptive.h"
#include "fedsearch/core/metasearcher.h"
#include "fedsearch/core/posterior_cache.h"
#include "fedsearch/corpus/testbed.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/cori.h"
#include "harness/report.h"

namespace fedsearch {
namespace {

const corpus::Testbed& MicroTestbed() {
  static const corpus::Testbed* bed = [] {
    corpus::TestbedOptions o = corpus::Testbed::Trec4Options(0.2);
    o.num_databases = 20;
    o.num_queries = 10;
    return new corpus::Testbed(o);
  }();
  return *bed;
}

const core::Metasearcher& MicroMetasearcher() {
  static const core::Metasearcher* meta = [] {
    const corpus::Testbed& bed = MicroTestbed();
    sampling::QbsOptions options;
    sampling::QbsSampler sampler(
        options, corpus::BuildSamplerDictionary(bed.model(), 10));
    std::vector<sampling::SampleResult> samples;
    std::vector<corpus::CategoryId> classifications;
    util::Rng rng(4242);
    for (size_t i = 0; i < bed.num_databases(); ++i) {
      util::Rng db_rng = rng.Fork();
      samples.push_back(sampler.Sample(bed.database(i), db_rng));
      classifications.push_back(bed.category_of(i));
    }
    return new core::Metasearcher(&bed.hierarchy(), std::move(samples),
                                  std::move(classifications));
  }();
  return *meta;
}

void BM_IndexConjunctiveQuery(benchmark::State& state) {
  const corpus::Testbed& bed = MicroTestbed();
  const index::TextDatabase& db = bed.database(0);
  const std::string query =
      bed.queries()[0].words[0] + " " + bed.queries()[0].words[1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Query(query, 4));
  }
}
BENCHMARK(BM_IndexConjunctiveQuery);

void BM_IndexSingleWordMatchCount(benchmark::State& state) {
  const corpus::Testbed& bed = MicroTestbed();
  const index::TextDatabase& db = bed.database(0);
  const std::string query = bed.queries()[0].words[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Query(query, 0));
  }
}
BENCHMARK(BM_IndexSingleWordMatchCount);

void BM_QbsSampleDatabase(benchmark::State& state) {
  const corpus::Testbed& bed = MicroTestbed();
  sampling::QbsOptions options;
  options.target_documents = static_cast<size_t>(state.range(0));
  sampling::QbsSampler sampler(
      options, corpus::BuildSamplerDictionary(bed.model(), 10));
  uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(sampler.Sample(bed.database(1), rng));
  }
}
BENCHMARK(BM_QbsSampleDatabase)->Arg(50)->Arg(150)->Arg(300);

void BM_EmMixtureFit(benchmark::State& state) {
  const core::Metasearcher& meta = MicroMetasearcher();
  const auto& hs = meta.hierarchy_summaries();
  const corpus::TopicHierarchy& h = MicroTestbed().hierarchy();
  core::SummaryChain chain;
  for (corpus::CategoryId c : h.PathFromRoot(meta.classification(0))) {
    chain.push_back(&hs.aggregate(c));
  }
  chain.push_back(&meta.plain_summary(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FitMixtureWeights(
        chain, hs.uniform_probability(), meta.sample(0).sample_size));
  }
}
BENCHMARK(BM_EmMixtureFit);

void BM_ShrunkSummaryLookup(benchmark::State& state) {
  const core::Metasearcher& meta = MicroMetasearcher();
  const core::ShrunkSummary& shrunk = meta.shrunk_summary(0);
  const std::string& word = MicroTestbed().queries()[0].words[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(shrunk.MixtureProbDoc(word));
  }
}
BENCHMARK(BM_ShrunkSummaryLookup);

// --- Adaptive kernels (DESIGN.md §6g) ---
// Three stages, benchmarked separately so a regression pinpoints itself:
// the per-database basis build (once per shard), the per-word flat weight
// grid built from a shared basis (once per (database, sample_df) cache
// miss), and the decision itself — the exact score moments over freshly
// built grids (per query×database).

void BM_PosteriorBasisBuild(benchmark::State& state) {
  for (auto _ : state) {
    core::PosteriorGridBasis basis(/*db_size=*/50000, /*gamma=*/-2.0,
                                   /*grid_points=*/64);
    benchmark::DoNotOptimize(basis.support().data());
  }
}
BENCHMARK(BM_PosteriorBasisBuild);

void BM_PosteriorWeightsFromBasis(benchmark::State& state) {
  const auto basis = std::make_shared<const core::PosteriorGridBasis>(
      /*db_size=*/50000, /*gamma=*/-2.0, /*grid_points=*/64);
  for (auto _ : state) {
    core::DocFrequencyPosterior posterior(basis, /*sample_df=*/3,
                                          /*sample_size=*/300);
    benchmark::DoNotOptimize(posterior.weights().data());
  }
}
BENCHMARK(BM_PosteriorWeightsFromBasis);

void BM_AdaptiveDecision(benchmark::State& state) {
  // One full decision as serving runs it: posteriors from a warm cache,
  // one contribution table per distinct term, the exact score moments and
  // the rule. The mixed-evidence gate is off so every iteration reaches
  // the moments instead of returning at the gate.
  const core::Metasearcher& meta = MicroMetasearcher();
  const corpus::Testbed& bed = MicroTestbed();
  const selection::Query query{bed.analyzer().Analyze(bed.queries()[0].text)};
  selection::CoriScorer cori;
  selection::ScoringContext context;
  for (size_t i = 0; i < meta.num_databases(); ++i) {
    context.ranked_summaries.push_back(&meta.plain_summary(i));
  }
  context.global_summary = &meta.global_summary();
  selection::PrepareContextForQuery(query, context);
  core::AdaptiveOptions options;
  options.require_mixed_evidence = false;
  core::AdaptiveSummarySelector selector(options);
  core::PosteriorCache cache(meta.num_databases());
  util::Rng rng(1);  // unused by Evaluate
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.Evaluate(query, meta.sample(0), cori,
                                               context, rng, &cache, 0));
  }
}
BENCHMARK(BM_AdaptiveDecision);

void BM_SelectDatabasesCori(benchmark::State& state) {
  const core::Metasearcher& meta = MicroMetasearcher();
  const corpus::Testbed& bed = MicroTestbed();
  const selection::Query query{bed.analyzer().Analyze(bed.queries()[0].text)};
  selection::CoriScorer cori;
  const core::SummaryMode mode = state.range(0) == 0
                                     ? core::SummaryMode::kPlain
                                     : core::SummaryMode::kAdaptiveShrinkage;
  for (auto _ : state) {
    benchmark::DoNotOptimize(meta.SelectDatabases(query, cori, mode));
  }
}
BENCHMARK(BM_SelectDatabasesCori)->Arg(0)->Arg(1);

// Console output plus a machine-readable tally of every finished run:
// (name, per-iteration real/cpu time in ns, iteration count).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Result {
    std::string name;
    double real_ns = 0.0;
    double cpu_ns = 0.0;
    double iterations = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type == Run::RT_Aggregate) continue;
      Result r;
      r.name = run.benchmark_name();
      const double to_ns =
          benchmark::GetTimeUnitMultiplier(run.time_unit) > 0
              ? 1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit)
              : 1.0;
      r.real_ns = run.GetAdjustedRealTime() * to_ns;
      r.cpu_ns = run.GetAdjustedCPUTime() * to_ns;
      r.iterations = static_cast<double>(run.iterations);
      results_.push_back(std::move(r));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Result>& results() const { return results_; }

 private:
  std::vector<Result> results_;
};

}  // namespace
}  // namespace fedsearch

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  // benchmark 1.7 takes the min time as a plain float (no "s" suffix).
  char min_time_flag[] = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time_flag);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }

  fedsearch::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    fedsearch::bench::BenchReport report("micro");
    report.SetConfig(fedsearch::bench::ConfigFromEnv());
    report.AddConfig("smoke", smoke ? 1.0 : 0.0);
    for (const auto& result : reporter.results()) {
      auto& scenario = report.AddScenario(result.name)
                           .Add("real_time_ns", result.real_ns)
                           .Add("cpu_time_ns", result.cpu_ns)
                           .Add("iterations", result.iterations);
      // Operations per second from CPU time: the "qps" prefix is what
      // opts a scenario into the perf-regression gate
      // (tools/check_bench_regression.py), so committing a micro baseline
      // turns these kernels into gated perf contracts.
      if (result.cpu_ns > 0.0) scenario.Add("qps_op", 1e9 / result.cpu_ns);
    }
    if (!report.WriteFile(json_path)) return 1;
  }
  return 0;
}

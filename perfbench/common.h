// Shared pieces of the repository benchmark: run options, the metric
// report, the in-memory span log, timing helpers and the workload-shape
// constants every workload agrees on.
#ifndef FEDSEARCH_PERFBENCH_COMMON_H_
#define FEDSEARCH_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "fedsearch/corpus/testbed.h"
#include "fedsearch/selection/flat_ranker.h"
#include "fedsearch/util/metrics.h"

namespace perfbench {

using namespace fedsearch;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 6.0;
  bool trace = false;
  // Reduced sizes for the self-tests: same code paths, small inputs.
  bool smoke = false;
  // Self-test negative case: shrinks churn-broker's databases below the
  // 300-document sample so its coverage assertion must fire.
  bool tiny_databases = false;
  // Where a traced run writes its span log: the binary's own directory.
  std::string spans_dir = ".";
};

// The span-log file of a traced run.
std::string SpansPath(const RunOptions& options);

// Wall clock of the benchmark's own timers.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// The machine-speed gauge. The benchmark shares a host with other tenants,
// and for minutes at a time their load can slow every cache miss of this
// process: whole runs then come out 30-60% slower, which no estimator that
// only looks inside the run can undo. The gauge times a fixed reference
// computation, which does not touch the library, again and again during
// the run: string-keyed hash-map lookups along a dependent chain, first in
// a table that fits in L2 and then in one that does not, roughly the
// selection path's mix of cached and missed lookups. Its best time over
// the run says how fast the machine was at its fastest, as each query's
// best time does for the program, and every wall-clock time the benchmark
// reports is scaled by kReferenceStepS / that best time
// (Report::AddScaled, README.md).
class SpeedGauge {
 public:
  // The reference step's best time on an unloaded 4-vCPU Xeon VM, so that
  // scaled times read as seconds on that machine.
  static constexpr double kReferenceStepS = 3.7e-3;

  SpeedGauge();
  SpeedGauge(const SpeedGauge&) = delete;
  SpeedGauge& operator=(const SpeedGauge&) = delete;

  // Times the reference step three times (after one untimed step),
  // unless the last sample is less than 0.5 s old.
  void Sample();
  double best_s() const { return best_s_; }
  size_t samples() const { return samples_; }

 private:
  struct Table {
    std::vector<std::string> keys;
    std::unordered_map<std::string, uint32_t> index;
  };
  static Table MakeTable(size_t keys, uint64_t seed);
  double Walk(const Table& table, size_t steps);

  Table l2_;
  Table beyond_l2_;
  uint64_t last_ns_ = 0;
  double best_s_ = 0.0;
  size_t samples_ = 0;
  volatile double sink_ = 0.0;
};

// The run's gauge, built before any workload data.
SpeedGauge& Gauge();

double Median(std::vector<double> v);
// Least value: the best of repetitions that do identical work, the one
// the machine disturbed least.
double Best(const std::vector<double>& v);
// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);
size_t PeakRssKb();

// FNV-1a over (database, score bits): the same digest the broker keeps
// per request, so static and broker rankings compare the same way.
uint64_t HashRanking(const std::vector<selection::RankedDatabase>& ranking);

// Deterministic per-purpose seeds derived from the run seed, so the
// testbed, the sampler streams, the churn draws and the arrival stream
// all follow --seed without sharing a stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose);

// The quarter-of-a-quarter vocabulary every workload shares: the topic
// model at 1/8 of its default vocabulary. See README.md for why.
void ApplyBenchVocabulary(corpus::TestbedOptions& options);

// Global counter value by registry name (0 if never registered).
uint64_t CounterValue(const char* name);
uint64_t HistogramSum(const char* name);

// One printed metric: name, value, unit and how many samples it
// summarizes. Deterministic values print as exact integers.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 1;
  bool exact = false;
  // Printed in the table only, not in the JSON result line.
  bool info = false;
  // A wall-clock time or rate: reported at the gauge's reference speed.
  bool scaled = false;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1);
  // A wall-clock time (unit s, ms or us) or rate (unit 1/s) measured in
  // this run: reported at the gauge's reference speed.
  void AddScaled(const std::string& name, double value,
                 const std::string& unit, size_t samples = 1);
  // Deterministic count: printed without a fractional part.
  void AddCount(const std::string& name, uint64_t value,
                const std::string& unit = "count");
  // Table-only values (context for a reader, not benchmark metrics).
  void AddInfo(const std::string& name, double value, const std::string& unit,
               bool exact = false);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Spans recorded around the benchmark's own calls into the library. The
// log lives in memory and is written out once, when the run ends. Only
// the benchmark's main thread records spans.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;  // index into spans(), -1 for a root span
    uint64_t id;     // per-query / per-epoch / per-setup id
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // RAII span. Always measures (the benchmark's timers read it); records
  // into the log only when the log is enabled.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, uint64_t id = 0);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Closes the span (idempotent) and returns its duration in seconds.
    double End();

   private:
    SpanLog* log_;
    const char* name_;
    uint64_t id_;
    uint64_t start_ns_;
    int64_t index_ = -1;
    double seconds_ = -1.0;
  };

  // One JSON object per span; `parent` indexes the enclosing span, so a
  // layer's self time is its duration minus its children's.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

SpanLog& Spans();

// Prints the fingerprint, the human-readable metric table, and the final
// one-line JSON result.
void PrintFingerprint(const RunOptions& options, size_t threads);
void PrintResult(const Report& report, bool correct, uint64_t attempted,
                 uint64_t failed);

// A failed output check: printed to stderr, and the run exits non-zero.
[[noreturn]] void Fail(const char* fmt, ...);

int RunStaticWorkload(const RunOptions& options);
int RunChurnWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // FEDSEARCH_PERFBENCH_COMMON_H_

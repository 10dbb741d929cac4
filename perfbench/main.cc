// Repository benchmark entry point.
//
//   perfbench --workload <short-plain|long-adaptive|churn-broker>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints a machine fingerprint, a metric table (name, value, unit, sample
// count) and, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the workload
// with spans on and reports the per-layer metrics (README.md lists both).
// Any failed output check exits non-zero without printing a result.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

SpeedGauge::Table SpeedGauge::MakeTable(size_t keys, uint64_t seed) {
  Table table;
  util::Rng rng(seed);
  table.keys.reserve(keys);
  table.index.reserve(keys);
  for (size_t i = 0; i < keys; ++i) {
    std::string key = "w";
    for (uint64_t v = rng.NextUint64() % 1000000007ULL; v > 0; v /= 26) {
      key += static_cast<char>('a' + v % 26);
    }
    table.keys.push_back(key);
    table.index.emplace(std::move(key), static_cast<uint32_t>(i));
  }
  return table;
}

SpeedGauge::SpeedGauge()
    : l2_(MakeTable(size_t{1} << 13, 1)),
      beyond_l2_(MakeTable(size_t{1} << 19, 2)) {}

double SpeedGauge::Walk(const Table& table, size_t steps) {
  // Each lookup's key depends on the previous lookup's value, so the
  // lookups cannot overlap; the chain is the same on every call.
  double acc = 0.0;
  size_t idx = 1;
  for (size_t i = 0; i < steps; ++i) {
    const auto it = table.index.find(table.keys[idx % table.keys.size()]);
    const uint32_t value = it == table.index.end() ? 0 : it->second;
    idx = value * 2654435761ULL + i;
    acc += std::log1p(static_cast<double>(value & 0xffff) * 1e-4);
  }
  return acc;
}

void SpeedGauge::Sample() {
  if (samples_ > 0 && NowNs() - last_ns_ < 500000000ULL) return;
  // The first step refills the caches the workload evicted; it is not
  // counted.
  for (size_t r = 0; r < 4; ++r) {
    const uint64_t start = NowNs();
    sink_ = Walk(l2_, 20000) + Walk(beyond_l2_, 5000);
    const double step_s = Seconds(NowNs() - start);
    if (r == 0) continue;
    if (samples_ == 0 || step_s < best_s_) best_s_ = step_s;
    ++samples_;
  }
  last_ns_ = NowNs();
}

SpeedGauge& Gauge() {
  static SpeedGauge* gauge = new SpeedGauge();
  return *gauge;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

size_t PeakRssKb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss);
}

namespace {

uint64_t MixHash(uint64_t h, uint64_t v) { return (h ^ v) * 1099511628211ULL; }

}  // namespace

uint64_t HashRanking(const std::vector<selection::RankedDatabase>& ranking) {
  uint64_t h = 1469598103934665603ULL;
  for (const selection::RankedDatabase& r : ranking) {
    uint64_t bits = 0;
    std::memcpy(&bits, &r.score, sizeof(bits));
    h = MixHash(h, static_cast<uint64_t>(r.database));
    h = MixHash(h, bits);
  }
  return h;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  // splitmix64 over (seed, purpose).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void ApplyBenchVocabulary(corpus::TestbedOptions& options) {
  options.model.vocab_size_by_depth[0] = 2250;
  options.model.vocab_size_by_depth[1] = 750;
  options.model.vocab_size_by_depth[2] = 500;
  options.model.vocab_size_by_depth[3] = 375;
  options.model.database_vocab_size = 100;
}

uint64_t CounterValue(const char* name) {
  return util::GlobalMetrics().counter(name).value();
}

uint64_t HistogramSum(const char* name) {
  return util::GlobalMetrics().histogram(name).sum();
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples, false, false});
}

void Report::AddScaled(const std::string& name, double value,
                       const std::string& unit, size_t samples) {
  Metric m{name, value, unit, samples, false, false};
  m.scaled = true;
  metrics_.push_back(m);
}

void Report::AddInfo(const std::string& name, double value,
                     const std::string& unit, bool exact) {
  metrics_.push_back(Metric{name, value, unit, 1, exact, true});
}

void Report::AddCount(const std::string& name, uint64_t value,
                      const std::string& unit) {
  metrics_.push_back(
      Metric{name, static_cast<double>(value), unit, 1, true, false});
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, uint64_t id)
    : log_(&log), name_(name), id_(id), start_ns_(NowNs()) {
  if (log_->enabled_) {
    index_ = static_cast<int64_t>(log_->spans_.size());
    const int64_t parent = log_->open_.empty() ? -1 : log_->open_.back();
    log_->spans_.push_back(Span{name_, start_ns_, 0, parent, id_});
    log_->open_.push_back(index_);
  }
}

double SpanLog::Scope::End() {
  if (seconds_ >= 0.0) return seconds_;
  const uint64_t end = NowNs();
  seconds_ = Seconds(end - start_ns_);
  if (index_ >= 0) {
    log_->spans_[static_cast<size_t>(index_)].end_ns = end;
    // Spans close in LIFO order on the single recording thread.
    if (!log_->open_.empty() && log_->open_.back() == index_) {
      log_->open_.pop_back();
    }
  }
  return seconds_;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"id\":%llu}%s\n",
                 s.name, static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

std::string SpansPath(const RunOptions& options) {
  return options.spans_dir + "/spans-" + options.workload + "-" +
         std::to_string(options.seed) + ".json";
}

SpanLog& Spans() {
  static SpanLog* log = new SpanLog();
  return *log;
}

void PrintFingerprint(const RunOptions& options, size_t threads) {
  std::printf("fingerprint: workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%ld compiler=\"%s\" build_type=%s threads=%zu%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, threads,
              options.smoke ? " smoke=1" : "");
}

namespace {

void PrintNumber(double v, bool exact) {
  if (exact) {
    std::printf("%.0f", v);
  } else {
    std::printf("%.17g", v);
  }
}

}  // namespace

void PrintResult(const Report& report, bool correct, uint64_t attempted,
                 uint64_t failed) {
  // Times shrink and rates grow by `speed` when the machine ran slower
  // than the reference (best gauge step above kReferenceStepS).
  const SpeedGauge& gauge = Gauge();
  const double speed = gauge.samples() > 0
                           ? SpeedGauge::kReferenceStepS / gauge.best_s()
                           : 1.0;
  std::vector<Metric> metrics = report.metrics();
  for (Metric& m : metrics) {
    if (m.scaled) m.value = m.unit == "1/s" ? m.value / speed : m.value * speed;
  }
  std::printf("gauge: best reference step %.3f us over %zu steps; "
              "times scaled by %.6f (rates by its inverse)\n",
              gauge.best_s() * 1e6, gauge.samples(), speed);
  std::printf("%-36s %20s %-8s %7s %20s\n", "metric", "value", "unit",
              "samples", "unscaled");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf(m.exact ? "%-36s %20.0f %-8s %7zu" : "%-36s %20.10g %-8s %7zu",
                m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    if (m.scaled) std::printf(" %20.10g", report.metrics()[i].value);
    std::printf("\n");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const Metric& m : metrics) {
    if (m.info) continue;
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", m.name.c_str());
    PrintNumber(m.value, m.exact);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Fail(const char* fmt, ...) {
  std::fflush(stdout);
  std::fprintf(stderr, "FAIL: ");
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fprintf(stderr, "\n");
  std::exit(1);
}

}  // namespace perfbench

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <short-plain|long-adaptive|churn-broker> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--tiny-databases]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  {
    const std::string self = argv[0];
    const size_t slash = self.rfind('/');
    if (slash != std::string::npos) options.spans_dir = self.substr(0, slash);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--tiny-databases") {
      options.tiny_databases = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.seconds <= 0.0) return Usage(argv[0]);
  // The gauge's tables are allocated before any workload data, so their
  // layout does not depend on the workload.
  perfbench::Gauge().Sample();
  perfbench::Spans().set_enabled(options.trace);
  if (options.workload == "short-plain" ||
      options.workload == "long-adaptive") {
    return perfbench::RunStaticWorkload(options);
  }
  if (options.workload == "churn-broker") {
    return perfbench::RunChurnWorkload(options);
  }
  return Usage(argv[0]);
}

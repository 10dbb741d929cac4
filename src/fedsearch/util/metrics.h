#ifndef FEDSEARCH_UTIL_METRICS_H_
#define FEDSEARCH_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "fedsearch/util/mutex.h"
#include "fedsearch/util/thread_annotations.h"

namespace fedsearch::util {

class JsonWriter;

// Monotonic timestamp in nanoseconds since an arbitrary epoch. This is the
// tree's sanctioned wall-clock read: the determinism lint bans
// std::chrono *_clock::now() outside util/, so every duration flows
// through here into metrics and traces — observational state that is kept
// strictly out of scored results (the bit-identity guarantees of the
// serving layer do not depend on wall time).
uint64_t MonotonicNanos();

// CPU time consumed by the whole process / the calling thread, in
// nanoseconds. Unlike MonotonicNanos these do not advance while the
// process is descheduled, so throughput derived from them is stable on a
// machine with noisy neighbours — the perf-regression gate compares
// CPU-time qps for exactly that reason. Same observational-only rules as
// MonotonicNanos. ThreadCpuNanos only sees the calling thread: durations
// that include ThreadPool work must use ProcessCpuNanos.
uint64_t ProcessCpuNanos();
uint64_t ThreadCpuNanos();

// Monotonically increasing event count. All operations are relaxed
// atomics: counters observe the computation, they never order it, and a
// torn read is impossible on a 64-bit word. One relaxed fetch_add on the
// hot path (~1 ns uncontended) is the entire cost of an increment.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins instantaneous value (thread count, federation size,
// configured scale). Not for accumulation — use Counter or Histogram.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-size log-linear histogram over [0, 2^64) — the HdrHistogram
// layout: values below 16 land in exact unit buckets, and every
// power-of-two range above is split into 16 linear sub-buckets, giving
// ~6% relative resolution everywhere with a constant 976-bucket footprint
// and no allocation after construction. Record is one relaxed fetch_add
// per bucket/count/sum (plus a CAS loop for the max), so concurrent
// recording never blocks; totals are exact, percentile positions are
// accurate to one sub-bucket.
//
// Time series recorded here are nanoseconds by convention (metric names
// end in _ns); dimensionless distributions (EM iterations, scaled ratios)
// record their natural integer value.
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 4;
  static constexpr uint32_t kSubBuckets = 1u << kSubBits;  // 16
  static constexpr uint32_t kNumBuckets =
      kSubBuckets + (64 - kSubBits) * kSubBuckets;  // 976

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  // The p-th percentile (p in [0, 100]), linearly interpolated inside the
  // landing bucket; 0 when the histogram is empty.
  double Percentile(double p) const;

  void Reset();

  // Serializes {count, sum, mean, max, p50, p95, p99} as one JSON object.
  void WriteJson(JsonWriter& writer) const;

  // Bucket geometry, exposed for the boundary unit tests.
  static uint32_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(uint32_t index);
  static uint64_t BucketWidth(uint32_t index);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// RAII wall-time recorder: measures from construction to scope exit and
// records the elapsed nanoseconds into the histogram — on every exit path,
// exceptional ones included (the destructor does the recording).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(&histogram), start_(MonotonicNanos()) {}
  ~ScopedTimer() { histogram_->Record(MonotonicNanos() - start_); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_;
};

// Named metric registry. Registration (the name lookup) takes a mutex and
// is meant to happen once per site — instrumented code caches the returned
// reference in a function-local static — after which updates touch only
// the metric's own atomics. References stay valid for the registry's
// lifetime; metrics are never unregistered.
//
// ToJson output is deterministic for deterministic inputs: names are
// emitted in sorted order and values are counts/durations, so two runs
// that perform the same work produce identical counter sections (the
// histogram/timing sections differ only in measured wall time).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Zeroes every registered metric (registrations survive). Benches call
  // this between phases to scope a snapshot to one workload.
  void ResetAll();

  size_t num_metrics() const;

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}.
  std::string ToJson(int indent = 0) const;
  // Same object, emitted into an enclosing document (the bench reports
  // embed it under a "metrics" key).
  void WriteJson(JsonWriter& writer) const;

 private:
  // Lock order: mu_ is terminal — no other lock is acquired while it is
  // held (registration and JSON export only touch the maps below; metric
  // updates happen outside it, on the cells' own atomics).
  mutable Mutex mu_;
  // The maps are guarded; the pointed-to metric cells are deliberately not
  // (they are lock-free atomics, updated after registration returns).
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      FEDSEARCH_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      FEDSEARCH_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      FEDSEARCH_GUARDED_BY(mu_);
};

// The process-wide registry every library-internal instrumentation site
// reports to. Never destroyed (worker threads may outlive static
// destruction order).
MetricsRegistry& GlobalMetrics();

}  // namespace fedsearch::util

#endif  // FEDSEARCH_UTIL_METRICS_H_

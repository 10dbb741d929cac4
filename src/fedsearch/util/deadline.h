#ifndef FEDSEARCH_UTIL_DEADLINE_H_
#define FEDSEARCH_UTIL_DEADLINE_H_

#include <limits>

namespace fedsearch::util {

// Charge-based request deadline.
//
// The repo's determinism contract bans wall-clock reads outside util/, so a
// deadline cannot be "a steady_clock time point". Instead it is a *budget of
// virtual milliseconds* that the serving path spends explicitly: each layer
// charges the modeled cost of the work it is about to do (one adaptive
// evaluation, one plain score, one remote search) and checks expired() at
// the next work boundary. Because the charges are plain double additions in
// a defined order, two runs with the same inputs expire at exactly the same
// boundary — which is what lets the broker's admission control *predict*
// whether a request will make its deadline and have the execution agree
// bit-for-bit.
//
// A Deadline is owned by the single worker thread executing its request; it
// is deliberately not thread-safe.
class Deadline {
 public:
  // Virtual cost model, in milliseconds, for the selection/search layers.
  // The defaults approximate the measured cold-cache costs on the TREC4
  // testbed at scale 0.25 (see bench/baselines/BENCH_serving_throughput.json:
  // adaptive ~30ms per 100-database query, plain ~0.2ms). Brokers scale the
  // whole table by a per-request service inflation to model tail faults.
  struct Costs {
    // One AdaptiveSummarySelector::Evaluate call (score moments of one
    // (query, database) pair).
    double adaptive_evaluation_ms = 0.3;
    // Scoring one database with an already-chosen summary (plain/CORI path).
    double score_ms = 0.002;
    // Querying one remote database during result merging, used when the
    // engine does not report its own service time (QueryResult::service_ms).
    double search_ms = 1.0;
  };

  // Default-constructed deadlines are infinite: they never expire and
  // charging them is a no-op. This is what un-brokered callers get.
  Deadline() = default;
  static Deadline Infinite() { return Deadline(); }

  // (Two overloads instead of a Costs{} default argument: a nested-class
  // default member initializer may not be used in a default argument of
  // the enclosing class.)
  explicit Deadline(double budget_ms) : Deadline(budget_ms, Costs()) {}
  Deadline(double budget_ms, Costs costs)
      : budget_ms_(budget_ms), costs_(costs), infinite_(false) {}

  bool infinite() const { return infinite_; }
  const Costs& costs() const { return costs_; }

  double budget_ms() const { return budget_ms_; }
  double consumed_ms() const { return consumed_ms_; }
  double remaining_ms() const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    return budget_ms_ > consumed_ms_ ? budget_ms_ - consumed_ms_ : 0.0;
  }

  // The budget is spent the moment consumed >= budget; a zero (or negative)
  // budget is born expired, which is how a broker marks a request that
  // already missed its deadline while queued.
  bool expired() const { return !infinite_ && consumed_ms_ >= budget_ms_; }

  // Spends `cost_ms` of the budget. Charges are unconditional — a charge
  // that crosses the budget still lands, so consumed_ms() always equals the
  // exact prefix sum of the work performed, and a cost-model replay of the
  // same work arrives at the same expiry verdict.
  //
  // Returns whether the budget is still alive (!expired()) after the
  // charge, and the result must be consumed: every charging site decides
  // something — abandon, degrade, record expiry — and a dropped verdict is
  // a deadline the caller silently stopped honoring. Callers that charge
  // for work already performed and deliberately continue regardless should
  // say so by binding the result (e.g. `const bool budget_ok = ...`).
  [[nodiscard]] bool Charge(double cost_ms) {
    if (!infinite_) consumed_ms_ += cost_ms;
    return !expired();
  }

  [[nodiscard]] bool ChargeAdaptiveEvaluation() {
    return Charge(costs_.adaptive_evaluation_ms);
  }
  [[nodiscard]] bool ChargeScore() { return Charge(costs_.score_ms); }
  // Charges a remote search: the engine-reported service time when positive,
  // otherwise the model default.
  [[nodiscard]] bool ChargeSearch(double service_ms) {
    return Charge(service_ms > 0.0 ? service_ms : costs_.search_ms);
  }

 private:
  double budget_ms_ = std::numeric_limits<double>::infinity();
  double consumed_ms_ = 0.0;
  Costs costs_;
  bool infinite_ = true;
};

}  // namespace fedsearch::util

#endif  // FEDSEARCH_UTIL_DEADLINE_H_

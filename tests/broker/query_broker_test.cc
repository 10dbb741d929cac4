#include "fedsearch/broker/query_broker.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "fedsearch/broker/load_generator.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/cori.h"
#include "testing/small_testbed.h"

namespace fedsearch::broker {
namespace {

using fedsearch::testing::SharedSmallTestbed;

// CORI whose Score holds each thread's first call until `threads` threads
// are inside Score at once. A 20 s timeout releases a gathering that never
// completes, so a broker running fewer workers fails the test instead of
// hanging it.
class RendezvousCori : public selection::CoriScorer {
 public:
  explicit RendezvousCori(size_t threads) : threads_(threads) {}

  double Score(const selection::Query& query, const summary::SummaryView& db,
               const selection::ScoringContext& context) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (seen_.insert(std::this_thread::get_id()).second) {
        ++arrived_;
        cv_.notify_all();
        if (!cv_.wait_for(lock, std::chrono::seconds(20),
                          [this] { return arrived_ >= threads_; })) {
          timed_out_ = true;
        }
      }
    }
    return CoriScorer::Score(query, db, context);
  }

  // True when all `threads` threads met before any waiter timed out.
  bool met() const {
    std::lock_guard<std::mutex> lock(mu_);
    return arrived_ >= threads_ && !timed_out_;
  }

 private:
  const size_t threads_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::set<std::thread::id> seen_;
  mutable size_t arrived_ = 0;
  mutable bool timed_out_ = false;
};

// One serial metasearcher shared by every broker test: the broker supplies
// the parallelism, the metasearcher must not.
class QueryBrokerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const corpus::Testbed& bed = SharedSmallTestbed();
    sampling::QbsOptions options;
    options.target_documents = 80;
    sampling::QbsSampler sampler(
        options, corpus::BuildSamplerDictionary(bed.model(), 10));
    std::vector<sampling::SampleResult> samples;
    std::vector<corpus::CategoryId> classifications;
    util::Rng rng(77);
    for (size_t i = 0; i < bed.num_databases(); ++i) {
      util::Rng db_rng = rng.Fork();
      samples.push_back(sampler.Sample(bed.database(i), db_rng));
      classifications.push_back(bed.category_of(i));
    }
    core::MetasearcherOptions meta_options;
    meta_options.num_threads = 1;
    meta_ = new core::Metasearcher(&bed.hierarchy(), std::move(samples),
                                   std::move(classifications), meta_options);
    queries_ = new std::vector<selection::Query>();
    for (const corpus::TestQuery& tq : bed.queries()) {
      queries_->push_back(selection::Query{bed.analyzer().Analyze(tq.text)});
    }
  }

  // Full-quality cost of one request under the broker's (default) cost
  // table — the same fold QueryBroker::PredictCostMs performs.
  static double AdaptiveCostMs(const BrokerOptions& options) {
    double cost = 0.0;
    const size_t n = meta_->num_databases();
    for (size_t i = 0; i < n - meta_->num_degraded(); ++i) {
      cost += options.costs.adaptive_evaluation_ms;
    }
    for (size_t i = 0; i < n; ++i) cost += options.costs.score_ms;
    return cost;
  }

  // Drives one broker over `n` generated arrivals and returns its
  // per-request accounts.
  static std::vector<RequestResult> RunLoad(const BrokerOptions& broker_opts,
                                            const OpenLoopOptions& load_opts,
                                            size_t n) {
    const selection::CoriScorer cori;
    QueryBroker broker(meta_, &cori, broker_opts);
    OpenLoopGenerator gen(load_opts, queries_->size());
    for (size_t i = 0; i < n; ++i) {
      const Arrival a = gen.Next();
      broker.Submit((*queries_)[a.query_index], a.arrival_ms,
                    a.service_inflation);
    }
    broker.Drain();
    std::vector<RequestResult> results = broker.results();
    broker.Shutdown();
    return results;
  }

  static core::Metasearcher* meta_;
  static std::vector<selection::Query>* queries_;
};

core::Metasearcher* QueryBrokerTest::meta_ = nullptr;
std::vector<selection::Query>* QueryBrokerTest::queries_ = nullptr;

TEST_F(QueryBrokerTest, EveryRequestResolvesUnderOverloadWithSlowFaults) {
  BrokerOptions broker_opts;
  broker_opts.num_workers = 2;
  broker_opts.deadline_ms = 10.0;
  OpenLoopOptions load_opts;
  load_opts.seed = 4242;
  load_opts.slow_rate = 0.1;
  load_opts.slow_factor = 8.0;
  // 2x the sustainable full-quality rate: genuine overload.
  load_opts.arrival_rate_qps =
      2.0 * broker_opts.num_workers * 1000.0 / AdaptiveCostMs(broker_opts);

  const selection::CoriScorer cori;
  QueryBroker broker(meta_, &cori, broker_opts);
  OpenLoopGenerator gen(load_opts, queries_->size());
  const size_t n = 300;
  for (size_t i = 0; i < n; ++i) {
    const Arrival a = gen.Next();
    broker.Submit((*queries_)[a.query_index], a.arrival_ms,
                  a.service_inflation);
  }
  broker.Drain();
  // ComputeStats CHECK-fails on any request left pending, so this line is
  // itself the every-request-resolves assertion.
  const BrokerStats stats = broker.ComputeStats();
  EXPECT_EQ(stats.submitted, n);
  EXPECT_EQ(stats.resolved(), n);
  EXPECT_EQ(stats.cancelled, 0u);
  for (const RequestResult& r : broker.results()) {
    if (r.admitted()) {
      // The client-observed latency never exceeds the deadline: a request
      // that cannot finish in time resolves as its timeout fires.
      EXPECT_LE(r.e2e_ms(), broker_opts.deadline_ms + 1e-9);
    }
    if (r.served()) {
      EXPECT_NE(r.ranking_hash, 0u);
    } else {
      EXPECT_EQ(r.ranking_hash, 0u);
    }
  }
  broker.Shutdown();
}

TEST_F(QueryBrokerTest, OutcomesAreDeterministicForAFixedArrivalSeed) {
  BrokerOptions broker_opts;
  broker_opts.num_workers = 3;
  broker_opts.deadline_ms = 8.0;
  OpenLoopOptions load_opts;
  load_opts.seed = 777;
  load_opts.slow_rate = 0.15;
  load_opts.arrival_rate_qps =
      2.5 * broker_opts.num_workers * 1000.0 / AdaptiveCostMs(broker_opts);

  const std::vector<RequestResult> a = RunLoad(broker_opts, load_opts, 200);
  const std::vector<RequestResult> b = RunLoad(broker_opts, load_opts, 200);
  ASSERT_EQ(a.size(), b.size());
  size_t sheds = 0, downgrades = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    // Admission rejections, downgrades, virtual times, and served rankings
    // are all pinned by the seed — real thread interleaving must not leak
    // into any recorded value.
    EXPECT_EQ(a[i].disposition, b[i].disposition) << i;
    EXPECT_EQ(a[i].downgraded, b[i].downgraded) << i;
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms) << i;
    EXPECT_EQ(a[i].start_ms, b[i].start_ms) << i;
    EXPECT_EQ(a[i].finish_ms, b[i].finish_ms) << i;
    EXPECT_EQ(a[i].service_ms, b[i].service_ms) << i;
    EXPECT_EQ(a[i].predicted_cost_ms, b[i].predicted_cost_ms) << i;
    EXPECT_EQ(a[i].evaluations_completed, b[i].evaluations_completed) << i;
    EXPECT_EQ(a[i].ranking_hash, b[i].ranking_hash) << i;
    if (!a[i].admitted()) ++sheds;
    if (a[i].downgraded) ++downgrades;
  }
  // At 2.5x overload the robustness layers must actually engage — quality
  // sheds first, so downgrades dominate rejections.
  EXPECT_GT(downgrades, 0u);
  EXPECT_LT(sheds, downgrades);
}

TEST_F(QueryBrokerTest, QueueFullShedsDeterministically) {
  // No RNG at all: 8 simultaneous arrivals against 2 workers and a
  // 2-deep queue. The first four occupy workers and queue; the rest are
  // shed with kShedQueueFull at admission.
  BrokerOptions broker_opts;
  broker_opts.num_workers = 2;
  broker_opts.deadline_ms = 1000.0;
  broker_opts.admission.queue_capacity = 2;
  const selection::CoriScorer cori;
  QueryBroker broker(meta_, &cori, broker_opts);
  for (int i = 0; i < 8; ++i) {
    broker.Submit((*queries_)[0], /*arrival_ms=*/0.0);
  }
  broker.Drain();
  const BrokerStats stats = broker.ComputeStats();
  EXPECT_EQ(stats.served_full, 4u);
  EXPECT_EQ(stats.shed_queue_full, 4u);
  EXPECT_EQ(stats.shed_predicted_miss, 0u);
  const auto& results = broker.results();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].disposition, Disposition::kServedFull) << i;
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(results[i].disposition, Disposition::kShedQueueFull) << i;
    EXPECT_DOUBLE_EQ(results[i].e2e_ms(), 0.0) << i;  // rejected on arrival
  }
}

TEST_F(QueryBrokerTest, HopelesslySlowRequestResolvesExactlyAtTheDeadline) {
  BrokerOptions broker_opts;
  broker_opts.num_workers = 1;
  broker_opts.deadline_ms = 10.0;
  const double cost = AdaptiveCostMs(broker_opts);
  // Inflate so the request cannot possibly finish: cost * 10 >> deadline.
  const double inflation = 10.0;
  ASSERT_GT(cost * inflation, broker_opts.deadline_ms);
  const selection::CoriScorer cori;
  QueryBroker broker(meta_, &cori, broker_opts);
  const size_t seq = broker.Submit((*queries_)[1], /*arrival_ms=*/5.0,
                                   inflation);
  broker.Drain();
  const RequestResult& r = broker.results()[seq];
  EXPECT_EQ(r.disposition, Disposition::kExpiredExecuting);
  // The client's timeout fires at exactly arrival + deadline on the
  // virtual clock; the worker abandoned the selection at the first
  // evaluation boundary past the budget.
  EXPECT_DOUBLE_EQ(r.e2e_ms(), broker_opts.deadline_ms);
  EXPECT_GT(r.evaluations_completed, 0u);
  EXPECT_LT(r.evaluations_completed, meta_->num_databases());
  EXPECT_EQ(r.ranking_hash, 0u);
}

TEST_F(QueryBrokerTest, NumWorkersRequestsExecuteConcurrently) {
  // num_workers requests at one virtual instant must run on num_workers
  // threads at once: each worker takes one (max_batch = 1) and its scorer
  // call waits inside Score until the others arrive.
  BrokerOptions broker_opts;
  broker_opts.num_workers = 3;
  broker_opts.max_batch = 1;
  broker_opts.full_mode = core::SummaryMode::kPlain;
  const RendezvousCori scorer(broker_opts.num_workers);
  QueryBroker broker(meta_, &scorer, broker_opts);
  for (size_t i = 0; i < broker_opts.num_workers; ++i) {
    broker.Submit((*queries_)[i], /*arrival_ms=*/0.0);
  }
  broker.Drain();
  EXPECT_TRUE(scorer.met());
  EXPECT_EQ(broker.ComputeStats().served_full, broker_opts.num_workers);
}

TEST_F(QueryBrokerTest, SubmitAfterShutdownResolvesAsCancelled) {
  const selection::CoriScorer cori;
  QueryBroker broker(meta_, &cori, BrokerOptions{});
  broker.Shutdown();
  const size_t seq = broker.Submit((*queries_)[0], 1.0);
  const RequestResult& r = broker.results()[seq];
  EXPECT_EQ(r.disposition, Disposition::kCancelledShutdown);
  EXPECT_EQ(broker.ComputeStats().cancelled, 1u);
  broker.Shutdown();  // idempotent
}

TEST_F(QueryBrokerTest, DrainWithNoSubmissionsReturnsImmediately) {
  const selection::CoriScorer cori;
  QueryBroker broker(meta_, &cori, BrokerOptions{});
  broker.Drain();
  EXPECT_EQ(broker.ComputeStats().submitted, 0u);
}

}  // namespace
}  // namespace fedsearch::broker

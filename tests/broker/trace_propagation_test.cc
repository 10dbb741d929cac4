// End-to-end trace propagation through the serving path: one brokered
// query must leave a connected span tree — a single trace id shared by
// the submit-side spans (admission, queue) and the worker-side spans
// (execute, selection, cache fills) — with every child's parent_id
// resolving to another span in the same tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fedsearch/broker/query_broker.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/util/trace.h"
#include "testing/small_testbed.h"

namespace fedsearch::broker {
namespace {

using fedsearch::testing::SharedSmallTestbed;

class TracePropagationTest : public ::testing::Test {
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

  void SetUp() override {
    util::Tracer::Global().set_enabled(true);
    util::Tracer::Global().Clear();
  }

  void TearDown() override {
    util::Tracer::Global().set_enabled(false);
    util::Tracer::Global().Clear();
  }

  static core::Metasearcher* meta_;
  static std::vector<selection::Query>* queries_;
};

core::Metasearcher* TracePropagationTest::meta_ = nullptr;
std::vector<selection::Query>* TracePropagationTest::queries_ = nullptr;

std::string AttrStr(const util::Tracer::Span& span, const char* key) {
  for (uint32_t i = 0; i < span.num_attrs; ++i) {
    if (std::string(span.attrs[i].key) == key &&
        span.attrs[i].value.kind ==
            util::Tracer::AttrValue::Kind::kString) {
      return span.attrs[i].value.s;
    }
  }
  return "";
}

TEST_F(TracePropagationTest, OneQueryYieldsAConnectedSpanTree) {
  const selection::CoriScorer cori;
  BrokerOptions broker_opts;
  broker_opts.num_workers = 1;
  QueryBroker broker(meta_, &cori, broker_opts);
  const size_t seq = broker.Submit((*queries_)[0], /*arrival_ms=*/0.0);
  broker.Drain();
  const RequestResult result = broker.results()[seq];
  broker.Shutdown();

  ASSERT_NE(result.trace_id, 0u) << "submit did not start a trace";
  EXPECT_EQ(result.disposition, Disposition::kServedFull);

  std::vector<util::Tracer::Span> tree;
  for (const util::Tracer::Span& span : util::Tracer::Global().snapshot()) {
    if (span.trace_id == result.trace_id) tree.push_back(span);
  }
  // The acceptance bar: at least five causally linked spans in one trace.
  ASSERT_GE(tree.size(), 5u);

  std::map<std::string, size_t> count_by_name;
  std::set<uint64_t> span_ids;
  uint64_t root_span_id = 0;
  for (const util::Tracer::Span& span : tree) {
    ++count_by_name[span.name];
    EXPECT_TRUE(span_ids.insert(span.span_id).second)
        << "duplicate span id " << span.span_id;
    if (std::string(span.name) == "broker_submit") root_span_id = span.span_id;
  }
  for (const char* name :
       {"broker_submit", "admission", "broker_queue", "broker_execute",
        "select_databases", "adaptive_evaluation"}) {
    EXPECT_EQ(count_by_name[name], 1u) << "missing span " << name;
  }
  // One fill for the adaptive decision context, one for the scoring
  // context.
  EXPECT_EQ(count_by_name["statistics_cache_fill"], 2u);
  // A cold posterior cache records at least one grid build under the trace.
  EXPECT_GE(count_by_name["posterior_grid_build"], 1u);

  // Every parent link resolves inside the tree; only the root is parented
  // on the trace itself (parent_id 0).
  ASSERT_NE(root_span_id, 0u);
  for (const util::Tracer::Span& span : tree) {
    if (span.span_id == root_span_id) {
      EXPECT_EQ(span.parent_id, 0u);
    } else {
      EXPECT_TRUE(span_ids.count(span.parent_id))
          << span.name << " parent " << span.parent_id
          << " is not a span of this trace";
    }
  }

  // The root span carries the request's full account as attributes.
  const util::Tracer::Span& root =
      *std::find_if(tree.begin(), tree.end(),
                    [&](const util::Tracer::Span& s) {
                      return s.span_id == root_span_id;
                    });
  EXPECT_EQ(AttrStr(root, "disposition"), "served_full");
}

TEST_F(TracePropagationTest, ConcurrentRequestsKeepDisjointSpanTrees) {
  const selection::CoriScorer cori;
  BrokerOptions broker_opts;
  broker_opts.num_workers = 2;
  QueryBroker broker(meta_, &cori, broker_opts);
  constexpr size_t kRequests = 6;
  std::vector<size_t> seqs;
  for (size_t i = 0; i < kRequests; ++i) {
    seqs.push_back(broker.Submit((*queries_)[i % queries_->size()],
                                 static_cast<double>(i)));
  }
  broker.Drain();
  const std::vector<RequestResult> results = broker.results();
  broker.Shutdown();

  std::set<uint64_t> trace_ids;
  for (size_t seq : seqs) {
    ASSERT_NE(results[seq].trace_id, 0u);
    EXPECT_TRUE(trace_ids.insert(results[seq].trace_id).second)
        << "two requests shared a trace id";
  }
  // Each admitted request's spans stay within its own trace: every
  // broker_execute span's seq attribute maps back to the trace id the
  // broker recorded for that request.
  std::map<uint64_t, uint64_t> trace_by_seq;
  for (size_t seq : seqs) trace_by_seq[seq] = results[seq].trace_id;
  for (const util::Tracer::Span& span : util::Tracer::Global().snapshot()) {
    if (std::string(span.name) != "broker_execute") continue;
    for (uint32_t i = 0; i < span.num_attrs; ++i) {
      if (std::string(span.attrs[i].key) == "seq") {
        EXPECT_EQ(span.trace_id, trace_by_seq[span.attrs[i].value.u])
            << "broker_execute for seq " << span.attrs[i].value.u
            << " landed in a foreign trace";
      }
    }
  }
}

TEST_F(TracePropagationTest, ShedRequestsStillGetARootedTrace) {
  const selection::CoriScorer cori;
  BrokerOptions broker_opts;
  broker_opts.num_workers = 1;
  broker_opts.admission.queue_capacity = 1;
  QueryBroker broker(meta_, &cori, broker_opts);
  // A burst at t=0 against a one-slot queue forces queue-full sheds.
  std::vector<size_t> seqs;
  for (size_t i = 0; i < 8; ++i) {
    seqs.push_back(broker.Submit((*queries_)[0], 0.0));
  }
  broker.Drain();
  const std::vector<RequestResult> results = broker.results();
  broker.Shutdown();

  size_t sheds = 0;
  for (size_t seq : seqs) {
    if (results[seq].admitted()) continue;
    ++sheds;
    ASSERT_NE(results[seq].trace_id, 0u);
    size_t tree_size = 0;
    bool found_disposition = false;
    for (const util::Tracer::Span& span :
         util::Tracer::Global().snapshot()) {
      if (span.trace_id != results[seq].trace_id) continue;
      ++tree_size;
      if (std::string(span.name) == "broker_submit") {
        found_disposition =
            AttrStr(span, "disposition") ==
            DispositionName(results[seq].disposition);
      }
    }
    // Sheds resolve at admission: root + admission span, nothing more.
    EXPECT_EQ(tree_size, 2u);
    EXPECT_TRUE(found_disposition);
  }
  EXPECT_GT(sheds, 0u) << "test did not provoke any sheds";
}

}  // namespace
}  // namespace fedsearch::broker

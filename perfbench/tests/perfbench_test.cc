// Tests of the benchmark's own code: percentiles, seeded inputs, the
// forwarding accessor and span self times.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/flos_engine.h"
#include "graph/accessor.h"
#include "graph/generators.h"
#include "graph/labels.h"
#include "loadgen.h"
#include "timed_accessor.h"
#include "trace.h"

namespace perfbench {
namespace {

flos::Graph TestGraph(uint64_t nodes, uint64_t edges, uint64_t seed) {
  flos::GeneratorOptions gen;
  gen.num_nodes = nodes;
  gen.num_edges = edges;
  gen.seed = seed;
  return std::move(flos::GenerateConnected(gen)).value();
}

flos::LabelStore TestLabels(uint64_t nodes, uint64_t seed) {
  flos::LabelGenOptions lab;
  lab.num_nodes = nodes;
  lab.num_labels = 60;
  lab.labels_per_node = 3;
  lab.zipf_exponent = 1.0;
  lab.seed = seed;
  return std::move(flos::GenerateZipfLabels(lab)).value();
}

TEST(NearestRankTest, PicksTheSmallestSampleCoveringTheQuantile) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  EXPECT_EQ(NearestRank(samples, 0.50), 50);
  EXPECT_EQ(NearestRank(samples, 0.99), 99);
  EXPECT_EQ(NearestRank(samples, 1.0), 100);
  EXPECT_EQ(NearestRank(samples, 0.001), 1);
  EXPECT_EQ(NearestRank({7}, 0.99), 7);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
  // Three samples: p50 is the second (rank ceil(1.5) = 2), p99 the third.
  EXPECT_EQ(NearestRank({30, 10, 20}, 0.5), 20);
  EXPECT_EQ(NearestRank({30, 10, 20}, 0.99), 30);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(PoissonScheduleTest, RepeatsForASeedAndStaysInTheWindow) {
  const std::vector<int64_t> a = PoissonSchedule(7, 400, 10);
  EXPECT_EQ(a, PoissonSchedule(7, 400, 10));
  EXPECT_NE(a, PoissonSchedule(8, 400, 10));
  // 4000 expected arrivals; 5 standard deviations is ~316.
  EXPECT_NEAR(static_cast<double>(a.size()), 4000, 316);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_LE(a[i - 1], a[i]);
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), int64_t{10000000000});
}

TEST(QueryListTest, DistinctNodesRepeatForASeed) {
  const flos::Graph graph = TestGraph(3000, 9000, 3);
  const std::vector<flos::NodeId> a = DistinctQueryNodes(graph, 500, 11);
  EXPECT_EQ(a, DistinctQueryNodes(graph, 500, 11));
  EXPECT_NE(a, DistinctQueryNodes(graph, 500, 12));
  std::vector<flos::NodeId> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const flos::NodeId v : a) EXPECT_GT(graph.Degree(v), 0u);
}

/// Everything a planned request sends, for equality checks.
std::vector<std::tuple<flos::NodeId, uint32_t, uint64_t, std::string, int>>
Flatten(const std::vector<PlannedRequest>& list) {
  std::vector<std::tuple<flos::NodeId, uint32_t, uint64_t, std::string, int>>
      out;
  for (const PlannedRequest& p : list) {
    out.emplace_back(p.request.query_node, p.request.k,
                     p.request.deadline_us, p.request.predicate.ToString(),
                     p.sel_class);
  }
  return out;
}

TEST(PlanWorkloadTest, EveryWorkloadRepeatsForASeed) {
  const flos::Graph graph = TestGraph(20000, 60000, 5);
  const flos::LabelStore labels = TestLabels(graph.NumNodes(), 9);
  for (const std::string& name : WorkloadNames()) {
    SCOPED_TRACE(name);
    WorkloadSpec spec;
    ASSERT_TRUE(FindWorkload(name, &spec));
    const WorkloadPlan a = PlanWorkload(spec, graph, labels, 21, 2);
    const WorkloadPlan b = PlanWorkload(spec, graph, labels, 21, 2);
    const WorkloadPlan c = PlanWorkload(spec, graph, labels, 22, 2);
    EXPECT_EQ(a.warmup.size(), spec.warmup_requests);
    ASSERT_FALSE(a.measured.empty());
    EXPECT_EQ(Flatten(a.warmup), Flatten(b.warmup));
    EXPECT_EQ(Flatten(a.measured), Flatten(b.measured));
    EXPECT_EQ(a.due_ns, b.due_ns);
    EXPECT_NE(Flatten(a.measured), Flatten(c.measured));
    EXPECT_EQ(spec.open_loop, !a.due_ns.empty());
    if (spec.open_loop) EXPECT_EQ(a.due_ns.size(), a.measured.size());
    for (const PlannedRequest& p : a.measured) {
      EXPECT_GT(graph.Degree(p.request.query_node), 0u);
      EXPECT_EQ(p.request.deadline_us, spec.deadline_us);
      if (name == "zipf_open" || name == "zipf_paged") {
        EXPECT_TRUE(p.request.k == 10 || p.request.k == 20 ||
                    p.request.k == 50);
      } else {
        EXPECT_EQ(p.request.k, 10u);
      }
      EXPECT_EQ(p.request.predicate.empty(), name != "filtered_mix");
    }
  }
}

TEST(CalibratePredicatesTest, RepeatsAndCountsExactly) {
  const flos::LabelStore labels = TestLabels(50000, 13);
  const std::vector<CalibratedPredicate> a = CalibratePredicates(labels);
  const std::vector<CalibratedPredicate> b = CalibratePredicates(labels);
  ASSERT_EQ(a.size(), b.size());
  bool class_seen[kNumSelectivityClasses] = {};
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].predicate, b[i].predicate);
    EXPECT_EQ(a[i].sel_class, b[i].sel_class);
    class_seen[a[i].sel_class] = true;
    uint64_t matches = 0;
    for (flos::NodeId v = 0; v < labels.NumNodes(); ++v) {
      if (a[i].predicate.Matches(labels.Labels(v))) ++matches;
    }
    EXPECT_EQ(matches, a[i].matches) << a[i].predicate.ToString();
    const double fraction =
        static_cast<double>(matches) / static_cast<double>(labels.NumNodes());
    const double target = kSelectivityTargets[a[i].sel_class];
    EXPECT_LE(fraction, 3 * target);
    EXPECT_GE(fraction, target / 3);
  }
  for (const bool seen : class_seen) EXPECT_TRUE(seen);
}

void ExpectSameRun(const flos::FlosResult& plain,
                   const flos::FlosResult& timed) {
  ASSERT_EQ(plain.topk.size(), timed.topk.size());
  for (size_t i = 0; i < plain.topk.size(); ++i) {
    EXPECT_EQ(plain.topk[i].node, timed.topk[i].node);
    EXPECT_EQ(plain.topk[i].score, timed.topk[i].score);  // bit-identical
    EXPECT_EQ(plain.topk[i].lower, timed.topk[i].lower);
    EXPECT_EQ(plain.topk[i].upper, timed.topk[i].upper);
  }
  const flos::FlosStats& p = plain.stats;
  const flos::FlosStats& t = timed.stats;
  EXPECT_EQ(p.visited_nodes, t.visited_nodes);
  EXPECT_EQ(p.expansions, t.expansions);
  EXPECT_EQ(p.inner_iterations, t.inner_iterations);
  EXPECT_EQ(p.exact, t.exact);
  EXPECT_EQ(p.exhausted_component, t.exhausted_component);
  EXPECT_EQ(p.deadline_expired, t.deadline_expired);
  EXPECT_EQ(p.cache_hit, t.cache_hit);
  EXPECT_EQ(p.subgraph_hit, t.subgraph_hit);
}

TEST(TimedAccessorTest, EngineRunsExactlyAsOverThePlainAccessor) {
  const flos::Graph graph = TestGraph(4000, 16000, 17);
  const flos::LabelStore labels = TestLabels(graph.NumNodes(), 19);
  flos::InMemoryAccessor plain(&graph);
  flos::InMemoryAccessor inner(&graph);
  TimedAccessor timed(&inner);
  flos::FlosEngine plain_engine(&plain);
  flos::FlosEngine timed_engine(&timed);

  const flos::LabelPredicate overlap =
      std::move(flos::LabelPredicate::Make(flos::PredicateType::kOverlap,
                                           {1, 4}))
          .value();
  const std::vector<flos::NodeId> queries = DistinctQueryNodes(graph, 12, 23);
  uint64_t searches = 0;
  uint64_t fetches = 0;
  for (const flos::Measure measure :
       {flos::Measure::kPhp, flos::Measure::kRwr, flos::Measure::kTht}) {
    for (const bool filtered : {false, true}) {
      for (const flos::NodeId q : queries) {
        SCOPED_TRACE(q);
        flos::FlosOptions opts;
        opts.measure = measure;
        if (filtered) {
          opts.labels = &labels;
          opts.predicate = overlap;
        }
        plain.ResetStats();
        timed.ResetStats();
        timed.SetMatchFilter(&labels, &opts.predicate);
        const auto a = plain_engine.TopK(q, 10, opts);
        const auto b = timed_engine.TopK(q, 10, opts);
        timed.SetMatchFilter(nullptr, nullptr);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ExpectSameRun(*a, *b);
        EXPECT_EQ(plain.stats().neighbor_fetches,
                  timed.stats().neighbor_fetches);
        EXPECT_EQ(plain.stats().degree_probes, timed.stats().degree_probes);
        fetches += timed.stats().neighbor_fetches;
        ++searches;
      }
    }
  }
  const AccessorCounters& c = timed.counters();
  EXPECT_GT(c.fetch_ns, 0u);
  // Every search ran under a filter; the overlap predicate rejects some.
  EXPECT_LT(c.matching_fetches, fetches);
  EXPECT_GT(c.matching_fetches, 0u);
  EXPECT_EQ(searches, 3 * 2 * queries.size());
}

TEST(PagedZipfTest, PagesFollowTheirSessionAtTheGap) {
  const flos::Graph graph = TestGraph(20000, 60000, 5);
  const ZipfNodeSampler zipf(graph, 0.99);
  flos::Rng a(31), b(31);
  const std::vector<NodeK> list = PagedZipfRequests(zipf, 30000, 8, &a);
  const std::vector<NodeK> again = PagedZipfRequests(zipf, 30000, 8, &b);
  ASSERT_EQ(list.size(), 30000u);
  double count[3] = {};
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(list[i].node, again[i].node);
    EXPECT_EQ(list[i].k, again[i].k);
    ASSERT_TRUE(list[i].k == 10 || list[i].k == 20 || list[i].k == 50);
    count[list[i].k == 10 ? 0 : list[i].k == 20 ? 1 : 2] += 1;
    if (list[i].k == 10) continue;
    // The page before is on the same node, at least 8 positions earlier.
    const uint32_t before = list[i].k == 20 ? 10 : 20;
    bool found = false;
    for (size_t j = i >= 8 ? i - 8 + 1 : 0; j-- > 0;) {
      if (list[j].node == list[i].node && list[j].k == before) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "position " << i;
  }
  const double n = static_cast<double>(list.size());
  EXPECT_NEAR(count[0] / n, 0.6, 0.02);
  EXPECT_NEAR(count[1] / n, 0.3, 0.02);
  EXPECT_NEAR(count[2] / n, 0.1, 0.02);
}

TEST(TraceTest, SelfTimeSubtractsChildren) {
  Trace trace;
  Span root;
  root.request_id = 4;
  root.name = "engine.topk";
  root.start_ns = 100;
  root.end_ns = 1100;
  const int64_t id = trace.Add(root);
  const int64_t expand = trace.AddAggregate(id, "flos_engine.expand", 600);
  trace.AddAggregate(id, "flos_engine.solve", 300);
  trace.AddAggregate(expand, "accessor.fetch", 250);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(expand)].request_id, 4u);
  const auto self = trace.SelfTimes();
  EXPECT_EQ(self.at("engine.topk").self_ns, 100);
  EXPECT_EQ(self.at("flos_engine.expand").self_ns, 350);
  EXPECT_EQ(self.at("flos_engine.solve").self_ns, 300);
  EXPECT_EQ(self.at("accessor.fetch").total_ns, 250);
}

}  // namespace
}  // namespace perfbench

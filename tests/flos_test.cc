// Headline correctness tests for FLoS: exactness of the returned top-k
// against whole-graph ground truth, across measures, graphs, k, and query
// nodes; plus behavior on the paper's worked example.

#include "core/flos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/flos_engine.h"
#include "measures/exact.h"
#include "measures/measure.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace flos {
namespace {

using testing::ExpectTopKMatchesScores;
using testing::PaperExampleGraph;
using testing::RandomConnectedGraph;
using testing::ValueOrDie;

std::vector<NodeId> NodesOf(const FlosResult& result) {
  std::vector<NodeId> out;
  for (const ScoredNode& s : result.topk) out.push_back(s.node);
  return out;
}

TEST(FlosTest, PaperExampleTop2Php) {
  // Figure 4: with q=1, c=0.8, nodes {2,3} are certified as the top-2
  // before node 8 is visited.
  const Graph g = PaperExampleGraph();
  FlosOptions options;
  options.measure = Measure::kPhp;
  options.c = 0.8;
  const FlosResult result = ValueOrDie(FlosTopK(g, /*query=*/0, 2, options));
  ASSERT_EQ(result.topk.size(), 2u);
  EXPECT_TRUE(result.stats.exact);
  const std::vector<NodeId> nodes = NodesOf(result);
  EXPECT_TRUE((nodes == std::vector<NodeId>{1, 2}) ||
              (nodes == std::vector<NodeId>{2, 1}))
      << nodes[0] << "," << nodes[1];
  // The paper's point: termination happens before the whole graph is seen.
  EXPECT_LT(result.stats.visited_nodes, g.NumNodes());
}

TEST(FlosTest, PaperExampleBoundsBracketExactValues) {
  const Graph g = PaperExampleGraph();
  const std::vector<double> exact = ValueOrDie(ExactPhp(g, 0, 0.8));
  FlosOptions options;
  options.measure = Measure::kPhp;
  options.c = 0.8;
  const FlosResult result = ValueOrDie(FlosTopK(g, 0, 3, options));
  for (const ScoredNode& s : result.topk) {
    EXPECT_LE(s.lower, exact[s.node] + 1e-9);
    EXPECT_GE(s.upper, exact[s.node] - 1e-9);
  }
}

struct ExactnessCase {
  Measure measure;
  bool self_loop;
};

class FlosExactnessTest
    : public ::testing::TestWithParam<std::tuple<ExactnessCase, int>> {};

TEST_P(FlosExactnessTest, MatchesGroundTruthOnRandomGraphs) {
  const auto [cfg, seed] = GetParam();
  const Graph g =
      RandomConnectedGraph(/*nodes=*/300, /*edges=*/900, /*seed=*/seed * 7 + 1,
                           /*random_weights=*/true);
  MeasureParams params;
  params.c = 0.5;
  params.tht_length = 10;
  FlosOptions options;
  options.measure = cfg.measure;
  options.c = params.c;
  options.tht_length = params.tht_length;
  options.tolerance = 1e-7;
  options.self_loop_tightening = cfg.self_loop;
  const Direction dir = MeasureDirection(cfg.measure);

  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    const auto query = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    const std::vector<double> exact =
        ValueOrDie(ExactMeasure(g, query, cfg.measure, params));
    for (const int k : {1, 5, 20}) {
      const FlosResult result = ValueOrDie(FlosTopK(g, query, k, options));
      EXPECT_TRUE(result.stats.exact);
      ASSERT_EQ(result.topk.size(), static_cast<size_t>(k));
      ExpectTopKMatchesScores(NodesOf(result), exact, query, k, dir, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, FlosExactnessTest,
    ::testing::Combine(
        ::testing::Values(ExactnessCase{Measure::kPhp, true},
                          ExactnessCase{Measure::kPhp, false},
                          ExactnessCase{Measure::kEi, true},
                          ExactnessCase{Measure::kDht, true},
                          ExactnessCase{Measure::kTht, true},
                          ExactnessCase{Measure::kRwr, true},
                          ExactnessCase{Measure::kRwr, false}),
        ::testing::Range(1, 4)));

TEST(FlosTest, UnitWeightGraphWithTies) {
  // Unit weights create score ties; exactness is asserted on scores.
  const Graph g = RandomConnectedGraph(200, 500, 99, /*random_weights=*/false);
  FlosOptions options;
  options.measure = Measure::kPhp;
  options.c = 0.5;
  const std::vector<double> exact = ValueOrDie(ExactPhp(g, 5, 0.5));
  const FlosResult result = ValueOrDie(FlosTopK(g, 5, 10, options));
  ASSERT_EQ(result.topk.size(), 10u);
  ExpectTopKMatchesScores(NodesOf(result), exact, 5, 10,
                          Direction::kMaximize, 1e-6);
}

TEST(FlosTest, ScoresWithinReportedBounds) {
  const Graph g = RandomConnectedGraph(250, 700, 17);
  for (const Measure m : {Measure::kPhp, Measure::kDht, Measure::kTht}) {
    FlosOptions options;
    options.measure = m;
    options.c = 0.5;
    MeasureParams params;
    const std::vector<double> exact = ValueOrDie(ExactMeasure(g, 3, m, params));
    const FlosResult result = ValueOrDie(FlosTopK(g, 3, 8, options));
    for (const ScoredNode& s : result.topk) {
      EXPECT_LE(s.lower, exact[s.node] + 1e-6) << MeasureName(m);
      EXPECT_GE(s.upper, exact[s.node] - 1e-6) << MeasureName(m);
      EXPECT_LE(s.lower, s.upper + 1e-12);
    }
  }
}

TEST(FlosTest, RwrScoresApproximateExactValues) {
  const Graph g = RandomConnectedGraph(250, 700, 21);
  FlosOptions options;
  options.measure = Measure::kRwr;
  options.c = 0.5;
  options.tolerance = 1e-9;
  const std::vector<double> exact = ValueOrDie(ExactRwr(g, 7, 0.5));
  const FlosResult result = ValueOrDie(FlosTopK(g, 7, 5, options));
  for (const ScoredNode& s : result.topk) {
    // The reported interval is rigorous (PHP bounds x the Theorem-6 scale
    // interval), and the midpoint score approximates the exact value to
    // within the half-width.
    EXPECT_LE(s.lower, exact[s.node] + 1e-9);
    EXPECT_GE(s.upper, exact[s.node] - 1e-9);
    EXPECT_NEAR(s.score, exact[s.node],
                0.5 * (s.upper - s.lower) + 1e-9);
  }
}

TEST(FlosTest, SmallComponentReturnsEverything) {
  // Query in a 4-node component; k larger than the component.
  GraphBuilder builder;
  FLOS_ASSERT_OK(builder.AddEdge(0, 1));
  FLOS_ASSERT_OK(builder.AddEdge(1, 2));
  FLOS_ASSERT_OK(builder.AddEdge(2, 3));
  FLOS_ASSERT_OK(builder.AddEdge(4, 5));  // separate component
  const Graph g = ValueOrDie(std::move(builder).Build());
  FlosOptions options;
  const FlosResult result = ValueOrDie(FlosTopK(g, 0, 10, options));
  EXPECT_TRUE(result.stats.exhausted_component);
  EXPECT_EQ(result.topk.size(), 3u);  // nodes 1, 2, 3
  for (const ScoredNode& s : result.topk) EXPECT_LT(s.node, 4u);
}

TEST(FlosTest, IsolatedQueryReturnsEmpty) {
  GraphBuilder::Options builder_options;
  builder_options.num_nodes = 5;
  GraphBuilder builder(builder_options);
  FLOS_ASSERT_OK(builder.AddEdge(1, 2));
  const Graph g = ValueOrDie(std::move(builder).Build());
  FlosOptions options;
  const FlosResult result = ValueOrDie(FlosTopK(g, 0, 3, options));
  EXPECT_TRUE(result.topk.empty());
  EXPECT_TRUE(result.stats.exhausted_component);
}

TEST(FlosTest, InvalidArgumentsAreRejected) {
  const Graph g = PaperExampleGraph();
  FlosOptions options;
  EXPECT_FALSE(FlosTopK(g, 0, 0, options).ok());
  EXPECT_FALSE(FlosTopK(g, 99, 2, options).ok());
  options.c = 1.5;
  EXPECT_FALSE(FlosTopK(g, 0, 2, options).ok());
  options.c = 0.5;
  options.measure = Measure::kTht;
  options.tht_length = 0;
  EXPECT_FALSE(FlosTopK(g, 0, 2, options).ok());
}

TEST(FlosTest, MaxVisitedCutoffIsRespected) {
  const Graph g = RandomConnectedGraph(500, 1500, 5);
  FlosOptions options;
  options.max_visited = 30;
  const FlosResult result = ValueOrDie(FlosTopK(g, 0, 50, options));
  // The cutoff is checked after each expansion, so allow one batch overshoot.
  EXPECT_LE(result.stats.visited_nodes, 30u + g.MaxWeightedDegree());
}

TEST(FlosTest, OuterIterationsCountExpansionBatches) {
  const Graph g = RandomConnectedGraph(2000, 6000, 13);
  for (const Measure measure : {Measure::kPhp, Measure::kTht, Measure::kRwr}) {
    FlosOptions options;
    options.measure = measure;
    options.tht_length = 3;
    options.expansion_batch = 1;
    const FlosResult one = ValueOrDie(FlosTopK(g, 7, 10, options));
    EXPECT_GT(one.stats.outer_iterations, 0u) << MeasureName(measure);
    EXPECT_EQ(one.stats.outer_iterations, one.stats.expansions)
        << MeasureName(measure);
    options.expansion_batch = 0;  // adaptive: several nodes per iteration
    const FlosResult adaptive = ValueOrDie(FlosTopK(g, 7, 10, options));
    EXPECT_GT(adaptive.stats.outer_iterations, 0u) << MeasureName(measure);
    EXPECT_LT(adaptive.stats.outer_iterations, adaptive.stats.expansions)
        << MeasureName(measure);
  }
}

// The frontier is popped from a binary heap; its expansion order must be
// the full sort's under the same total order, ties included.
TEST(FrontierOrderTest, HeapPopsMatchAFullSort) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<FrontierEntry> entries;
    const auto n = static_cast<LocalId>(1 + rng.NextBounded(300));
    for (LocalId i = 0; i < n; ++i) {
      // Few distinct priorities, so most entries tie with others.
      entries.push_back(
          {static_cast<double>(rng.NextBounded(6)) * 0.25, (i * 7919) % n});
    }
    std::vector<FrontierEntry> sorted = entries;
    std::sort(sorted.begin(), sorted.end(), ExpandsBefore);
    const auto heap_less = [](const FrontierEntry& a,
                              const FrontierEntry& b) {
      return ExpandsBefore(b, a);
    };
    std::make_heap(entries.begin(), entries.end(), heap_less);
    for (size_t popped = 0; popped < sorted.size(); ++popped) {
      const auto end = entries.end() - static_cast<ptrdiff_t>(popped);
      std::pop_heap(entries.begin(), end, heap_less);
      ASSERT_EQ((end - 1)->node, sorted[popped].node) << "pop " << popped;
      ASSERT_EQ((end - 1)->priority, sorted[popped].priority);
    }
  }
}

// A hub with 20 identical spokes, each with one private leaf: after the
// hub is expanded, every spoke has the same bounds, so the whole frontier
// ties. Expanding one spoke does not touch the others' equations, so they
// keep tying, and batch-1 expansion must take them in ascending local id
// order (the spokes' local ids follow the hub's sorted list).
TEST(FlosTest, EqualPriorityFrontierExpandsInLocalIdOrder) {
  constexpr NodeId kSpokes = 20;
  GraphBuilder builder;
  for (NodeId i = 1; i <= kSpokes; ++i) {
    FLOS_ASSERT_OK(builder.AddEdge(0, i, 1.0));
    FLOS_ASSERT_OK(builder.AddEdge(i, kSpokes + i, 1.0));
  }
  const Graph g = ValueOrDie(std::move(builder).Build());
  for (const Measure measure : {Measure::kPhp, Measure::kTht}) {
    testing::RecordingAccessor accessor(&g);
    FlosEngine engine(&accessor);
    FlosOptions options;
    options.measure = measure;
    options.expansion_batch = 1;
    // k covers every non-query node, so the search visits every node.
    const FlosResult r = ValueOrDie(engine.TopK(0, 2 * kSpokes, options));
    EXPECT_EQ(r.stats.visited_nodes, 2 * kSpokes + 1);
    // Fetches: the hub, its spokes in list order, then one leaf per
    // expanded spoke.
    std::vector<NodeId> expected;
    for (NodeId v = 0; v <= 2 * kSpokes; ++v) expected.push_back(v);
    EXPECT_EQ(accessor.fetches(), expected) << MeasureName(measure);
  }
}

// Locality is what best-first expansion by interval midpoint (Algorithm 3)
// buys, per measure: an expansion order that ignored the rank direction
// (e.g. THT's minimize sign) would still certify, but only after visiting
// most of the graph.
TEST(FlosTest, VisitsSmallFractionOfLargerGraph) {
  const Graph g = RandomConnectedGraph(5000, 15000, 11);
  for (const Measure measure : {Measure::kPhp, Measure::kEi, Measure::kDht,
                                Measure::kTht, Measure::kRwr}) {
    FlosOptions options;
    options.measure = measure;
    options.tht_length = 3;
    const FlosResult result = ValueOrDie(FlosTopK(g, 42, 10, options));
    EXPECT_TRUE(result.stats.exact) << MeasureName(measure);
    EXPECT_LT(result.stats.visited_nodes, g.NumNodes() / 4)
        << MeasureName(measure) << ": FLoS should certify locally";
  }
}

// Default options (best-first expansion) certify the exact top-k for every
// measure against whole-graph ground truth.
TEST(FlosTest, DefaultOptionsCertifyTheExactTopK) {
  const Graph graph = RandomConnectedGraph(350, 1400, 31);
  const int k = 8;
  MeasureParams params;
  for (const Measure measure : {Measure::kPhp, Measure::kEi, Measure::kDht,
                                Measure::kTht, Measure::kRwr}) {
    FlosOptions options;
    options.measure = measure;
    for (const NodeId query : {NodeId{2}, NodeId{77}, NodeId{300}}) {
      const FlosResult result = ValueOrDie(FlosTopK(graph, query, k, options));
      ASSERT_TRUE(result.stats.exact)
          << MeasureName(measure) << " failed to certify";
      const std::vector<double> exact =
          ValueOrDie(ExactMeasure(graph, query, measure, params));
      ExpectTopKMatchesScores(NodesOf(result), exact, query, k,
                              MeasureDirection(measure));
    }
  }
}

// Every measure certifies the exact top-k (THT through its horizon DP),
// and every returned interval is well formed. One test per measure names
// the failing configuration directly.
class FlosMeasureExactnessTest : public ::testing::TestWithParam<Measure> {};

TEST_P(FlosMeasureExactnessTest, CertifiesTheExactTopK) {
  const Measure measure = GetParam();
  const Graph g = RandomConnectedGraph(600, 2400, 17);
  const MeasureParams params;
  FlosOptions options;
  options.measure = measure;
  for (const NodeId query : {NodeId{5}, NodeId{321}}) {
    const FlosResult result = ValueOrDie(FlosTopK(g, query, 10, options));
    ASSERT_TRUE(result.stats.exact) << "query " << query;
    for (const ScoredNode& s : result.topk) {
      EXPECT_LE(s.lower, s.upper + 1e-12)
          << "certified interval inverted for node " << s.node;
    }
    const std::vector<double> exact =
        ValueOrDie(ExactMeasure(g, query, measure, params));
    ExpectTopKMatchesScores(NodesOf(result), exact, query, 10,
                            MeasureDirection(measure), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Measures, FlosMeasureExactnessTest,
    ::testing::Values(Measure::kPhp, Measure::kEi, Measure::kDht,
                      Measure::kTht, Measure::kRwr),
    [](const ::testing::TestParamInfo<Measure>& param_info) {
      return MeasureName(param_info.param);
    });

}  // namespace
}  // namespace flos

// Tests for the exact measure solvers, including the paper's worked
// numbers and the agreement between iterative and dense ground truth.

#include "measures/exact.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "measures/measure.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using testing::PaperPathGraph;
using testing::RandomConnectedGraph;
using testing::ValueOrDie;

TEST(MeasureTest, DirectionsAndProperties) {
  EXPECT_EQ(MeasureDirection(Measure::kPhp), Direction::kMaximize);
  EXPECT_EQ(MeasureDirection(Measure::kEi), Direction::kMaximize);
  EXPECT_EQ(MeasureDirection(Measure::kRwr), Direction::kMaximize);
  EXPECT_EQ(MeasureDirection(Measure::kDht), Direction::kMinimize);
  EXPECT_EQ(MeasureDirection(Measure::kTht), Direction::kMinimize);
  EXPECT_TRUE(HasNoLocalOptimum(Measure::kPhp));
  EXPECT_TRUE(HasNoLocalOptimum(Measure::kEi));
  EXPECT_TRUE(HasNoLocalOptimum(Measure::kDht));
  EXPECT_TRUE(HasNoLocalOptimum(Measure::kTht));
  EXPECT_FALSE(HasNoLocalOptimum(Measure::kRwr));
  EXPECT_TRUE(IsCloser(Direction::kMaximize, 2.0, 1.0));
  EXPECT_TRUE(IsCloser(Direction::kMinimize, 1.0, 2.0));
  EXPECT_EQ(MeasureName(Measure::kTht), "THT");
}

TEST(MeasureTest, ParseMeasureRoundTripsLowercaseNames) {
  for (const Measure m : {Measure::kPhp, Measure::kEi, Measure::kDht,
                          Measure::kTht, Measure::kRwr}) {
    std::string name = MeasureName(m);
    for (char& ch : name) {
      ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
    EXPECT_EQ(ValueOrDie(ParseMeasure(name)), m) << name;
  }
  for (const char* bad : {"", "PHP", "pagerank"}) {
    const Result<Measure> parsed = ParseMeasure(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(),
              std::string("unknown measure '") + bad +
                  "' (expected php|ei|dht|tht|rwr)");
  }
}

TEST(ExactPhpTest, PaperPathGraphValues) {
  // Figure 2(a): path 1-2-3, q=1, c=0.5 -> r = [1, 2/7, 1/7].
  const Graph g = PaperPathGraph();
  const std::vector<double> r = ValueOrDie(ExactPhp(g, 0, 0.5));
  EXPECT_NEAR(r[0], 1.0, 1e-9);
  EXPECT_NEAR(r[1], 2.0 / 7.0, 1e-9);
  EXPECT_NEAR(r[2], 1.0 / 7.0, 1e-9);
}

TEST(ExactTest, IterativeMatchesDense) {
  const Graph g = RandomConnectedGraph(60, 150, 8);
  const NodeId q = 3;
  ExactSolveOptions tight;
  tight.tolerance = 1e-13;
  {
    const auto it = ValueOrDie(ExactPhp(g, q, 0.5, tight));
    const auto dn = ValueOrDie(DensePhp(g, q, 0.5));
    for (size_t i = 0; i < it.size(); ++i) EXPECT_NEAR(it[i], dn[i], 1e-9);
  }
  {
    const auto it = ValueOrDie(ExactRwr(g, q, 0.5, tight));
    const auto dn = ValueOrDie(DenseRwr(g, q, 0.5));
    for (size_t i = 0; i < it.size(); ++i) EXPECT_NEAR(it[i], dn[i], 1e-9);
  }
  {
    const auto it = ValueOrDie(ExactDht(g, q, 0.5, tight));
    const auto dn = ValueOrDie(DenseDht(g, q, 0.5));
    for (size_t i = 0; i < it.size(); ++i) EXPECT_NEAR(it[i], dn[i], 1e-8);
  }
}

TEST(ExactRwrTest, IsAProbabilityLikeVector) {
  const Graph g = RandomConnectedGraph(100, 300, 2);
  const std::vector<double> r = ValueOrDie(ExactRwr(g, 0, 0.3));
  double sum = 0;
  for (const double v : r) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-4);  // PPR mass sums to 1
}

TEST(ExactDhtTest, DisconnectedSaturatesAtInverseC) {
  GraphBuilder::Options builder_options;
  builder_options.num_nodes = 5;
  GraphBuilder builder(builder_options);
  FLOS_ASSERT_OK(builder.AddEdge(0, 1));
  FLOS_ASSERT_OK(builder.AddEdge(2, 3));  // unreachable pair + isolated 4
  const Graph g = ValueOrDie(std::move(builder).Build());
  const std::vector<double> r = ValueOrDie(ExactDht(g, 0, 0.5));
  EXPECT_NEAR(r[0], 0.0, 1e-9);
  EXPECT_NEAR(r[1], 1.0, 1e-9);        // one deterministic hop
  EXPECT_NEAR(r[2], 2.0, 1e-4);        // 1/c
  EXPECT_NEAR(r[3], 2.0, 1e-4);
  EXPECT_NEAR(r[4], 2.0, 1e-9);        // isolated: special-cased to 1/c
}

TEST(ExactThtTest, HandComputedValues) {
  // Path 1-2-3, q=1 (0-based 0). THT with L=3:
  // t=1: r2=1, r3=1. t=2: r2 = 1 + .5*0 + .5*1 = 1.5, r3 = 1 + r2(t1) = 2.
  // t=3: r2 = 1 + .5*r3(t2) = 2, r3 = 1 + r2(t2) = 2.5.
  const Graph g = PaperPathGraph();
  const std::vector<double> r = ValueOrDie(ExactTht(g, 0, 3));
  EXPECT_NEAR(r[0], 0.0, 1e-12);
  EXPECT_NEAR(r[1], 2.0, 1e-12);
  EXPECT_NEAR(r[2], 2.5, 1e-12);
}

TEST(ExactThtTest, UnreachableWithinLGetsL) {
  // Path of 6 nodes, L = 3: node 5 is 5 hops away -> exactly L.
  GraphBuilder builder;
  for (int i = 0; i + 1 < 6; ++i) FLOS_ASSERT_OK(builder.AddEdge(i, i + 1));
  const Graph g = ValueOrDie(std::move(builder).Build());
  const std::vector<double> r = ValueOrDie(ExactTht(g, 0, 3));
  EXPECT_NEAR(r[5], 3.0, 1e-12);
  EXPECT_LT(r[1], 3.0);
}

TEST(ExactEiTest, IsDegreeNormalizedRwr) {
  const Graph g = RandomConnectedGraph(80, 240, 10);
  const auto rwr = ValueOrDie(ExactRwr(g, 2, 0.4));
  const auto ei = ValueOrDie(ExactEi(g, 2, 0.4));
  for (NodeId i = 0; i < g.NumNodes(); ++i) {
    EXPECT_NEAR(ei[i], rwr[i] / g.WeightedDegree(i), 1e-12);
  }
}

TEST(ExactTest, RejectsBadArguments) {
  const Graph g = PaperPathGraph();
  EXPECT_FALSE(ExactPhp(g, 99, 0.5).ok());
  EXPECT_FALSE(ExactPhp(g, 0, 0.0).ok());
  EXPECT_FALSE(ExactPhp(g, 0, 1.0).ok());
  EXPECT_FALSE(ExactTht(g, 0, 0).ok());
}

TEST(TopKFromScoresTest, RespectsDirectionAndExcludesQuery) {
  const std::vector<double> scores = {9.0, 5.0, 7.0, 1.0};
  const auto top_max = TopKFromScores(scores, 0, 2, Direction::kMaximize);
  ASSERT_EQ(top_max.size(), 2u);
  EXPECT_EQ(top_max[0], 2u);
  EXPECT_EQ(top_max[1], 1u);
  const auto top_min = TopKFromScores(scores, 3, 2, Direction::kMinimize);
  EXPECT_EQ(top_min[0], 1u);
  EXPECT_EQ(top_min[1], 2u);
  // k larger than available.
  EXPECT_EQ(TopKFromScores(scores, 0, 10, Direction::kMaximize).size(), 3u);
}

}  // namespace
}  // namespace flos

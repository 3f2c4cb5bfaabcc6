// Scalar-vs-AVX2 sweep-backend parity. The two backends evaluate the same
// monotone fixed-point operator in different row orders (the AVX2 backend
// packs rows into length-sorted ELL blocks), so converged bounds need not
// be bitwise equal — but both must keep the bound sandwich
// lower <= exact <= upper at every node, and at convergence they must
// agree to solver tolerance. End-to-end, a forced-scalar and a
// forced-AVX2 FLoS search must certify the same top-k.

#include <gtest/gtest.h>

#include <vector>

#include "core/flos.h"
#include "core/local_graph.h"
#include "core/sweep_kernel.h"
#include "core/unified_bound_engine.h"
#include "measures/exact.h"
#include "measures/measure.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using testing::RandomConnectedGraph;
using testing::ValueOrDie;

TEST(SweepBackendTest, KindResolutionAndNames) {
  EXPECT_STREQ(SweepBackendKindName(SweepBackendKind::kScalar), "scalar");
  EXPECT_STREQ(SweepBackendKindName(SweepBackendKind::kAvx2), "avx2");
  const SweepBackendKind resolved =
      ResolveSweepBackendKind(SweepBackendKind::kAuto);
  EXPECT_NE(resolved, SweepBackendKind::kAuto);
  if (!Avx2SweepAvailable()) {
    EXPECT_EQ(ResolveSweepBackendKind(SweepBackendKind::kAvx2),
              SweepBackendKind::kScalar)
        << "requesting AVX2 without hardware support must fall back";
  }
}

// Grows the same ball with one engine per backend and checks, after every
// growth round, that both keep the sandwich around the exact PHP values
// and that their converged bounds agree within a loose numerical band.
TEST(SweepBackendTest, ScalarAndAvx2KeepTheSameBoundSandwich) {
  if (!Avx2SweepAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  const Graph graph = RandomConnectedGraph(400, 1600, 17);
  const NodeId query = 9;
  const double c = 0.5;
  const std::vector<double> exact = ValueOrDie(ExactPhp(graph, query, c));

  InMemoryAccessor accessor(&graph);
  LocalGraph local_scalar(&accessor);
  LocalGraph local_avx2(&accessor);
  FLOS_ASSERT_OK(local_scalar.Init(query));
  FLOS_ASSERT_OK(local_avx2.Init(query));

  UnifiedBoundOptions be;
  be.traits = BoundTraitsFor(Measure::kPhp, c, 10);
  be.tolerance = 1e-10;
  be.backend = SweepBackendKind::kScalar;
  UnifiedBoundEngine scalar(&local_scalar, be);
  be.backend = SweepBackendKind::kAvx2;
  UnifiedBoundEngine avx2(&local_avx2, be);

  for (int round = 0; round < 6; ++round) {
    // Expand every boundary node: identical growth on both locals.
    std::vector<LocalId> ring;
    for (LocalId i = 0; i < local_scalar.Size(); ++i) {
      if (local_scalar.IsBoundary(i)) ring.push_back(i);
    }
    if (ring.empty()) break;
    // Dummy capture refers to the boundary BEFORE the expansion.
    scalar.CaptureDummyFromBoundary();
    avx2.CaptureDummyFromBoundary();
    for (const LocalId u : ring) {
      ValueOrDie(local_scalar.Expand(u));
      ValueOrDie(local_avx2.Expand(u));
    }
    ASSERT_EQ(local_scalar.Size(), local_avx2.Size());
    scalar.OnGrowth();
    avx2.OnGrowth();
    scalar.UpdateBounds();
    avx2.UpdateBounds();

    for (LocalId i = 0; i < local_scalar.Size(); ++i) {
      const double exact_i = exact[local_scalar.GlobalId(i)];
      ASSERT_LE(scalar.lower(i), scalar.upper(i)) << "scalar sandwich";
      ASSERT_LE(avx2.lower(i), avx2.upper(i)) << "avx2 sandwich";
      ASSERT_LE(scalar.lower(i), exact_i + 1e-9)
          << "scalar lower not rigorous at local " << i;
      ASSERT_GE(scalar.upper(i), exact_i - 1e-9)
          << "scalar upper not rigorous at local " << i;
      ASSERT_LE(avx2.lower(i), exact_i + 1e-9)
          << "avx2 lower not rigorous at local " << i;
      ASSERT_GE(avx2.upper(i), exact_i - 1e-9)
          << "avx2 upper not rigorous at local " << i;
      // Same operator, same tolerance: converged values agree far beyond
      // the certification band even though the row order differs.
      ASSERT_NEAR(scalar.lower(i), avx2.lower(i), 1e-6)
          << "backends diverged (lower) at local " << i;
      ASSERT_NEAR(scalar.upper(i), avx2.upper(i), 1e-6)
          << "backends diverged (upper) at local " << i;
    }
  }
}

// End-to-end: forcing either backend yields the same certified answer for
// every fixed-point measure (THT runs the DP and ignores the seam, but is
// included to pin that forcing a backend never breaks it), and each
// backend's answer is the exact top-k of the whole-graph solver.
TEST(SweepBackendTest, ForcedBackendsCertifyTheSameTopK) {
  if (!Avx2SweepAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  const Graph graph = RandomConnectedGraph(500, 2000, 29);
  const MeasureParams params;
  for (const Measure measure : {Measure::kPhp, Measure::kEi, Measure::kDht,
                                Measure::kTht, Measure::kRwr}) {
    FlosOptions options;
    options.measure = measure;
    options.sweep_backend = SweepBackendKind::kScalar;
    const FlosResult scalar = ValueOrDie(FlosTopK(graph, 21, 10, options));
    options.sweep_backend = SweepBackendKind::kAvx2;
    const FlosResult avx2 = ValueOrDie(FlosTopK(graph, 21, 10, options));
    ASSERT_TRUE(scalar.stats.exact) << MeasureName(measure);
    ASSERT_TRUE(avx2.stats.exact) << MeasureName(measure);
    const std::vector<double> exact =
        ValueOrDie(ExactMeasure(graph, 21, measure, params));
    for (const FlosResult* result : {&scalar, &avx2}) {
      std::vector<NodeId> nodes;
      for (const ScoredNode& s : result->topk) nodes.push_back(s.node);
      testing::ExpectTopKMatchesScores(nodes, exact, 21, 10,
                                       MeasureDirection(measure));
    }
    ASSERT_EQ(scalar.topk.size(), avx2.topk.size()) << MeasureName(measure);
    for (size_t i = 0; i < scalar.topk.size(); ++i) {
      EXPECT_EQ(scalar.topk[i].node, avx2.topk[i].node)
          << MeasureName(measure) << " rank " << i;
      EXPECT_NEAR(scalar.topk[i].score, avx2.topk[i].score, 1e-8)
          << MeasureName(measure) << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace flos

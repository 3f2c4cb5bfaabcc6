// Tests for the LocalGraph visited-set bookkeeping.

#include "core/local_graph.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/node_index.h"
#include "graph/accessor.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace flos {
namespace {

using testing::PaperExampleGraph;
using testing::RandomConnectedGraph;
using testing::ValueOrDie;

TEST(NodeMapTest, FindOrInsertOnBothBackends) {
  for (const bool dense : {true, false}) {
    NodeMap<NodeSlot> map;
    map.Configure(5000, dense);
    for (int round = 0; round < 2; ++round) {
      // 3000 keys outgrow the sparse backend's initial table twice over.
      for (NodeId v = 0; v < 3000; ++v) {
        const auto [slot, inserted] = map.FindOrInsert(v * 7 % 5000);
        ASSERT_TRUE(inserted) << "dense " << dense << " key " << v;
        EXPECT_EQ(slot->local, kInvalidLocal) << "fresh slots start empty";
        slot->local = v;
      }
      EXPECT_EQ(map.size(), 3000u);
      for (NodeId v = 0; v < 3000; ++v) {
        const auto [slot, inserted] = map.FindOrInsert(v * 7 % 5000);
        EXPECT_FALSE(inserted);
        EXPECT_EQ(slot->local, v);
        ASSERT_NE(map.Find(v * 7 % 5000), nullptr);
      }
      EXPECT_EQ(map.Find(3000 * 7 % 5000), nullptr);
      map.Reset();  // the next round must see an empty map
      EXPECT_EQ(map.size(), 0u);
      EXPECT_EQ(map.Find(0), nullptr);
    }
  }
}

TEST(LocalGraphTest, InitAddsQueryOnly) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(0));
  EXPECT_EQ(local.Size(), 1u);
  EXPECT_TRUE(local.Contains(0));
  EXPECT_FALSE(local.Contains(1));
  EXPECT_EQ(local.LocalIndex(0), 0u);
  EXPECT_EQ(local.LocalIndex(1), kInvalidLocal);
  EXPECT_EQ(local.GlobalId(0), 0u);
  EXPECT_TRUE(local.IsBoundary(0)) << "query has unvisited neighbors";
  EXPECT_EQ(local.OutsideCount(0), 2u);  // neighbors 2,3 (paper ids)
  EXPECT_DOUBLE_EQ(local.WeightedDegree(0), 2.0);
  EXPECT_FALSE(local.Init(0).ok()) << "double init must fail";
}

TEST(LocalGraphTest, ExpandTracksBoundaryAndRows) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(0));
  // Expand the query: S = {1,2,3} in paper ids.
  EXPECT_EQ(ValueOrDie(local.Expand(0)), 2u);
  EXPECT_EQ(local.Size(), 3u);
  EXPECT_FALSE(local.IsBoundary(0)) << "all of q's neighbors visited";
  // Node 2 (paper) has neighbors {1,4}: 4 unvisited.
  const LocalId l2 = local.LocalIndex(1);
  EXPECT_EQ(local.OutsideCount(l2), 1u);
  // Row of node 2 contains only the visited neighbor q with p = 1/2.
  const LocalRow row = local.Row(l2);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row.idx[0], local.LocalIndex(0));
  EXPECT_DOUBLE_EQ(row.weight[0], 0.5);
  EXPECT_FALSE(local.Exhausted());
}

TEST(LocalGraphTest, ReverseRowsArePatchedOnJoin) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(0));
  FLOS_ASSERT_OK(local.Expand(0).status());
  // Expand node 3 (paper): adds 4 and 5.
  const LocalId l3 = local.LocalIndex(2);
  FLOS_ASSERT_OK(local.Expand(l3).status());
  EXPECT_EQ(local.Size(), 5u);
  // Node 2's row must now also contain node 4 (p = 1/2).
  const LocalRow row2 = local.Row(local.LocalIndex(1));
  EXPECT_EQ(row2.size(), 2u);
  // Node 4's row has visited neighbors {2,3} with p = 1/4 each.
  const LocalRow row4 = local.Row(local.LocalIndex(3));
  EXPECT_EQ(row4.size(), 2u);
  for (uint32_t e = 0; e < row4.len; ++e) {
    EXPECT_DOUBLE_EQ(row4.weight[e], 0.25);
  }
}

TEST(LocalGraphTest, ExhaustionOnFullVisit) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(0));
  while (true) {
    LocalId pick = kInvalidLocal;
    for (LocalId i = 0; i < local.Size(); ++i) {
      if (local.IsBoundary(i)) {
        pick = i;
        break;
      }
    }
    if (pick == kInvalidLocal) break;
    FLOS_ASSERT_OK(local.Expand(pick).status());
  }
  EXPECT_TRUE(local.Exhausted());
  EXPECT_EQ(local.BoundaryCount(), 0u);
  EXPECT_EQ(local.Size(), g.NumNodes());
  for (LocalId i = 0; i < local.Size(); ++i) {
    EXPECT_EQ(local.OutsideCount(i), 0u);
  }
  // Visited count equals accessor fetches.
  EXPECT_EQ(accessor.stats().neighbor_fetches, g.NumNodes());
}

TEST(LocalGraphTest, MaintainedBoundaryCountMatchesScan) {
  // The O(1) Exhausted()/BoundaryCount() must agree with a full scan of
  // the outside counts after EVERY expansion, across random graphs.
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const Graph g = RandomConnectedGraph(120, 360, seed);
    InMemoryAccessor accessor(&g);
    LocalGraph local(&accessor);
    FLOS_ASSERT_OK(local.Init(static_cast<NodeId>(seed % g.NumNodes())));
    Rng rng(seed);
    while (!local.Exhausted()) {
      uint32_t scanned = 0;
      for (LocalId i = 0; i < local.Size(); ++i) {
        if (local.OutsideCount(i) > 0) ++scanned;
      }
      ASSERT_EQ(local.BoundaryCount(), scanned);
      ASSERT_EQ(local.Exhausted(), scanned == 0);
      // Expand a random boundary node.
      std::vector<LocalId> boundary;
      for (LocalId i = 0; i < local.Size(); ++i) {
        if (local.IsBoundary(i)) boundary.push_back(i);
      }
      ASSERT_FALSE(boundary.empty());
      const LocalId pick =
          boundary[rng.NextBounded(static_cast<uint64_t>(boundary.size()))];
      FLOS_ASSERT_OK(local.Expand(pick).status());
    }
    uint32_t scanned = 0;
    for (LocalId i = 0; i < local.Size(); ++i) {
      if (local.OutsideCount(i) > 0) ++scanned;
    }
    EXPECT_EQ(scanned, 0u);
    EXPECT_EQ(local.BoundaryCount(), 0u);
  }
}

TEST(LocalGraphTest, RowInMassMatchesRowScan) {
  const Graph g = RandomConnectedGraph(100, 300, 5);
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(3));
  for (int step = 0; step < 12 && !local.Exhausted(); ++step) {
    for (LocalId i = 0; i < local.Size(); ++i) {
      if (local.IsBoundary(i)) {
        FLOS_ASSERT_OK(local.Expand(i).status());
        break;
      }
    }
    for (LocalId i = 0; i < local.Size(); ++i) {
      const LocalRow row = local.Row(i);
      double sum = 0;
      for (uint32_t e = 0; e < row.len; ++e) sum += row.weight[e];
      ASSERT_DOUBLE_EQ(local.RowInMass(i), sum)
          << "maintained in-mass diverged from the row at node " << i;
    }
  }
}

TEST(LocalGraphTest, StarCenterRowFillsItsSpanAcrossResets) {
  // A star center joins S before its leaves, so its whole row arrives by
  // reverse appends and must fill its span exactly; a Reset+reinit must
  // rebuild cleanly on the kept arena.
  GraphBuilder builder;
  const int kLeaves = 70;
  for (int i = 1; i <= kLeaves; ++i) {
    builder.AddEdge(0, static_cast<NodeId>(i), 1.0);
  }
  const Graph g = ValueOrDie(std::move(builder).Build());
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  for (int round = 0; round < 3; ++round) {
    FLOS_ASSERT_OK(local.Init(1));  // a leaf: center joins, then leaves
    FLOS_ASSERT_OK(local.Expand(0).status());
    const LocalId center = local.LocalIndex(0);
    FLOS_ASSERT_OK(local.Expand(center).status());
    ASSERT_EQ(local.Size(), static_cast<uint32_t>(kLeaves + 1));
    const LocalRow row = local.Row(center);
    ASSERT_EQ(row.size(), static_cast<uint32_t>(kLeaves));
    ASSERT_EQ(local.Neighbors(center).size(), static_cast<size_t>(kLeaves));
    double sum = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      EXPECT_DOUBLE_EQ(row.weight[e], 1.0 / kLeaves);
      sum += row.weight[e];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_TRUE(local.Exhausted());
    local.Reset();
  }
}

TEST(LocalGraphTest, ProbeDegreeCaches) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(0));
  const uint64_t before = accessor.stats().degree_probes;
  // The Add that made paper node 2 adjacent probed its degree once.
  EXPECT_DOUBLE_EQ(local.ProbeDegree(1), 2.0);
  EXPECT_DOUBLE_EQ(local.ProbeDegree(1), 2.0);
  // Visited nodes answer from their fetch.
  EXPECT_DOUBLE_EQ(local.ProbeDegree(0), 2.0);
  EXPECT_EQ(accessor.stats().degree_probes, before)
      << "visited and adjacent nodes must not reach the accessor";
  // A node not adjacent to S costs one uncached accessor call per probe.
  EXPECT_DOUBLE_EQ(local.ProbeDegree(7), 3.0);  // paper node 8
  EXPECT_EQ(accessor.stats().degree_probes, before + 1);
}

TEST(LocalGraphTest, EachDegreeIsProbedOnce) {
  // A node's degree is probed when it first becomes adjacent (or, for a
  // query node, when it joins); joining S later reuses that probe.
  const Graph g = RandomConnectedGraph(200, 600, 3);
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(std::vector<NodeId>{4, 9}));
  for (LocalId i = 0; i < local.Size() && local.Size() < 120; ++i) {
    FLOS_ASSERT_OK(local.Expand(i).status());
  }
  uint64_t never_adjacent = 0;  // visited without ever being adjacent
  for (LocalId i = 0; i < local.Size(); ++i) {
    if (local.AdjacentIndex(local.GlobalId(i)) == kInvalidLocal) {
      ++never_adjacent;
    }
  }
  EXPECT_EQ(accessor.stats().degree_probes,
            local.AdjacentCount() + never_adjacent);
  EXPECT_EQ(accessor.stats().neighbor_fetches, local.Size());
}

TEST(LocalGraphTest, PrefetchHintNamesTheNextFetchesInOrder) {
  const Graph g = RandomConnectedGraph(300, 900, 11);
  testing::RecordingAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(17));
  for (LocalId i = 0; i < local.Size() && local.Size() < 150; ++i) {
    FLOS_ASSERT_OK(local.Expand(i).status());
  }
  const auto& fetches = accessor.fetches();
  const auto& hints = accessor.hints();
  ASSERT_FALSE(hints.empty());
  size_t hinted = 0;
  for (const auto& hint : hints) {
    ASSERT_LE(hint.fetches_before + hint.nodes.size(), fetches.size());
    for (size_t e = 0; e < hint.nodes.size(); ++e) {
      EXPECT_EQ(fetches[hint.fetches_before + e], hint.nodes[e])
          << "hint naming " << hint.nodes.size() << " nodes, entry " << e;
    }
    hinted += hint.nodes.size();
  }
  // Every fetch but the query's was announced.
  EXPECT_EQ(hinted + 1, fetches.size());
}

// Expands the first boundary node `steps` times.
void ExpandFirstBoundary(LocalGraph* local, int steps) {
  for (int step = 0; step < steps && !local->Exhausted(); ++step) {
    for (LocalId i = 0; i < local->Size(); ++i) {
      if (local->IsBoundary(i)) {
        FLOS_ASSERT_OK(local->Expand(i).status());
        break;
      }
    }
  }
}

// Asserts that two workspaces hold the same state, node by node. Probing
// a visited or adjacent node's degree must not reach the accessor.
void ExpectSameState(LocalGraph* a, LocalGraph* b, const Graph& g,
                     const GraphAccessor& accessor) {
  ASSERT_EQ(a->Size(), b->Size());
  EXPECT_EQ(a->BoundaryCount(), b->BoundaryCount());
  EXPECT_EQ(a->UnvisitedHopLowerBound(), b->UnvisitedHopLowerBound());
  for (LocalId i = 0; i < a->Size(); ++i) {
    EXPECT_EQ(a->GlobalId(i), b->GlobalId(i));
    EXPECT_EQ(a->OutsideCount(i), b->OutsideCount(i));
    EXPECT_EQ(a->HopDistance(i), b->HopDistance(i));
    EXPECT_EQ(a->RowInMass(i), b->RowInMass(i));
    const LocalRow ra = a->Row(i);
    const LocalRow rb = b->Row(i);
    ASSERT_EQ(ra.len, rb.len);
    for (uint32_t e = 0; e < ra.len; ++e) {
      EXPECT_EQ(ra.idx[e], rb.idx[e]);
      EXPECT_EQ(ra.weight[e], rb.weight[e]);
    }
    const auto na = a->Neighbors(i);
    const auto nb = b->Neighbors(i);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t e = 0; e < na.size(); ++e) {
      EXPECT_EQ(na[e].id, nb[e].id);
      EXPECT_EQ(na[e].weight, nb[e].weight);
    }
  }
  const uint64_t probes = accessor.stats().degree_probes;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(a->Contains(v), b->Contains(v)) << "node " << v;
    ASSERT_EQ(a->LocalIndex(v), b->LocalIndex(v)) << "node " << v;
    ASSERT_EQ(a->AdjacentIndex(v), b->AdjacentIndex(v)) << "node " << v;
    ASSERT_EQ(a->IsOutsideAdjacent(v), b->IsOutsideAdjacent(v))
        << "node " << v;
    // One slot holds both ids: a visited non-query node keeps the
    // adjacency id it got before it was visited.
    if (b->Contains(v) && !b->IsQueryLocal(b->LocalIndex(v))) {
      EXPECT_NE(b->AdjacentIndex(v), kInvalidLocal) << "node " << v;
    }
    if (a->Contains(v) || a->IsOutsideAdjacent(v)) {
      EXPECT_EQ(a->ProbeDegree(v), b->ProbeDegree(v)) << "node " << v;
    }
  }
  EXPECT_EQ(accessor.stats().degree_probes, probes);
}

TEST(LocalGraphTest, SnapshotRoundTripsIntoAFreshWorkspace) {
  const Graph g = RandomConnectedGraph(200, 600, 7);
  InMemoryAccessor accessor(&g);
  LocalGraph original(&accessor);
  FLOS_ASSERT_OK(original.Init(5));
  ExpandFirstBoundary(&original, 6);
  LocalGraphSnapshot snap;
  original.SaveSnapshot(&snap);

  LocalGraph restored(&accessor);
  const AccessStats before = accessor.stats();
  restored.RestoreSnapshot(snap);
  EXPECT_EQ(accessor.stats().neighbor_fetches, before.neighbor_fetches);
  EXPECT_EQ(accessor.stats().degree_probes, before.degree_probes);
  ExpectSameState(&original, &restored, g, accessor);

  // Both continue identically.
  ExpandFirstBoundary(&original, 4);
  ExpandFirstBoundary(&restored, 4);
  ExpectSameState(&original, &restored, g, accessor);
}

// Drops `omitted` from `from`'s neighbor list, so some other list names
// `from` while `from`'s list does not name it back.
class AsymmetricAccessor final : public GraphAccessor {
 public:
  AsymmetricAccessor(const Graph* graph, NodeId from, NodeId omitted)
      : inner_(graph), from_(from), omitted_(omitted) {}

  uint64_t NumNodes() const override { return inner_.NumNodes(); }
  uint64_t NumEdges() const override { return inner_.NumEdges(); }
  double WeightedDegree(NodeId u) override {
    return inner_.WeightedDegree(u);
  }
  Status CopyNeighbors(NodeId u, std::vector<Neighbor>* out) override {
    FLOS_RETURN_IF_ERROR(inner_.CopyNeighbors(u, out));
    if (u == from_) {
      std::erase_if(*out,
                    [&](const Neighbor& nb) { return nb.id == omitted_; });
    }
    return Status::OK();
  }
  const std::vector<NodeId>& DegreeOrder() const override {
    return inner_.DegreeOrder();
  }
  double MaxWeightedDegree() const override {
    return inner_.MaxWeightedDegree();
  }

 private:
  InMemoryAccessor inner_;
  NodeId from_;
  NodeId omitted_;
};

TEST(LocalGraphTest, AsymmetricAdjacencyIsCorruption) {
  // Triangle 0-1-2 where 0's list omits 2 but 2's list names 0.
  GraphBuilder builder;
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(0, 2, 1.0);
  const Graph g = ValueOrDie(std::move(builder).Build());
  {
    AsymmetricAccessor accessor(&g, 0, 2);
    LocalGraph local(&accessor);
    FLOS_ASSERT_OK(local.Init(0));
    FLOS_ASSERT_OK(local.Expand(0).status());  // adds 1
    const auto grown = local.Expand(local.LocalIndex(1));  // adds 2
    ASSERT_FALSE(grown.ok());
    EXPECT_EQ(grown.status().code(), StatusCode::kCorruption);
  }
  {
    AsymmetricAccessor accessor(&g, 0, 2);
    LocalGraph local(&accessor);
    const Status init = local.Init(std::vector<NodeId>{0, 1, 2});
    EXPECT_EQ(init.code(), StatusCode::kCorruption);
  }
}

TEST(LocalGraphTest, RejectsBadIds) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  EXPECT_FALSE(local.Init(100).ok());
  LocalGraph local2(&accessor);
  FLOS_ASSERT_OK(local2.Init(0));
  EXPECT_FALSE(local2.Expand(55).ok());
}

}  // namespace
}  // namespace flos

// Graph partitioning for sharded serving (scale-out across processes).
//
// A partition assigns every node to exactly one owning shard (its "core")
// and replicates, per shard, an h-hop halo around that core. FLoS's visited
// set is tiny and local (the paper's central property), so a query routed
// to the shard owning its seed node almost always completes — and certifies
// an exact answer — without ever leaving the shard. The halo makes that
// precise:
//
//   ring 0           the core (owned nodes)
//   rings 1..h-1     replicated "interior" halo: complete adjacency (every
//                    neighbor is within ring h, hence present locally)
//   ring h           replicated "fringe": present with possibly truncated
//                    adjacency; may be VISITED and bounded, never EXPANDED
//
// Shard-local node ids are ordered core first, then interior rings, then
// the fringe, so "is this node expandable?" is the single comparison
// `local_id < num_interior` — which is exactly what
// FlosOptions::expandable_limit consumes. A search that would have to
// expand past the fringe stops uncertified with stats.frontier_clipped set
// (wire flag: halo-truncated); its bounds remain rigorous, preserving the
// serving layer's anytime contract.
//
// Soundness on a shard additionally requires global degree information:
// FLoS_RWR ranks by w_i * PHP(i) and bounds unvisited nodes through the
// maximum unknown degree, and the transition probabilities at a fringe
// node depend on its FULL degree. The shard map therefore records each
// local node's global weighted degree plus the maximum degree over all
// off-shard nodes; `ShardAccessor` serves those instead of the truncated
// shard-CSR values (see GraphAccessor::ExternalDegreeBound).

#ifndef FLOS_GRAPH_PARTITION_H_
#define FLOS_GRAPH_PARTITION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/accessor.h"
#include "graph/graph.h"
#include "util/status.h"

namespace flos {

/// How nodes are assigned to owning shards.
enum class PartitionMethod {
  /// owner(v) = mix(v) mod num_shards. Placement-free and O(1) to compute,
  /// but scatters neighborhoods across shards: most searches hit the halo
  /// early. Useful as the adversarial baseline and for id-space tests.
  kHash,
  /// Multi-source BFS growth: seeds one region per shard, then repeatedly
  /// grows the currently smallest shard by one frontier node. Produces
  /// balanced, contiguous regions with a small edge cut, so local searches
  /// rarely reach the halo. Default.
  kBfsGrow,
};

struct PartitionOptions {
  uint32_t num_shards = 2;
  PartitionMethod method = PartitionMethod::kBfsGrow;
  /// Replication radius h >= 1. Nodes within h hops of the core are
  /// replicated; rings 0..h-1 are expandable (complete adjacency), ring h
  /// is the non-expandable fringe.
  uint32_t halo_hops = 2;
  /// Seed for the BFS-grow region seeding (deterministic).
  uint64_t seed = 1;
};

/// Per-shard metadata: the node-id remap table plus the global degree
/// information that keeps FLoS bounds sound on the shard-local graph.
/// Written/read as the `.map` sidecar of the shard's edge list.
struct ShardMeta {
  uint32_t shard_index = 0;
  uint32_t num_shards = 0;
  uint32_t halo_hops = 0;
  /// Node count of the FULL graph this shard was cut from.
  uint64_t global_nodes = 0;
  /// Local ids [0, num_core) are owned by this shard.
  NodeId num_core = 0;
  /// Local ids [0, num_interior) have complete adjacency and may be
  /// expanded; [num_interior, num_local()) is the fringe.
  NodeId num_interior = 0;
  /// local id -> global id (size = local node count).
  std::vector<NodeId> local_to_global;
  /// Global weighted degree of each local node (the shard CSR understates
  /// it for fringe nodes).
  std::vector<double> global_degree;
  /// Max global weighted degree over all nodes NOT replicated into this
  /// shard; feeds GraphAccessor::ExternalDegreeBound.
  double external_max_degree = 0;

  NodeId num_local() const {
    return static_cast<NodeId>(local_to_global.size());
  }

  /// Local ids sorted by descending global weighted degree (ties by
  /// ascending id). Derived by FinalizeDerived(); not serialized.
  const std::vector<NodeId>& degree_order() const { return degree_order_; }

  /// Recomputes derived members after the serialized fields are filled.
  /// Called by PartitionGraph and ReadShardMap.
  void FinalizeDerived();

 private:
  std::vector<NodeId> degree_order_;
};

/// One shard: its local-id graph plus the metadata to interpret it.
struct ShardPart {
  ShardMeta meta;
  Graph graph;
};

/// A full partition of a graph.
struct GraphPartition {
  PartitionOptions options;
  /// global node -> owning shard.
  std::vector<uint32_t> owner;
  std::vector<ShardPart> shards;
  /// Edges whose endpoints have different owners.
  uint64_t cut_edges = 0;
};

/// Partitions `graph` into `options.num_shards` halo-replicated shards.
/// Requires num_shards >= 1, halo_hops >= 1, and at least one node per
/// shard.
Result<GraphPartition> PartitionGraph(const Graph& graph,
                                      const PartitionOptions& options);

/// GraphAccessor over a shard-local graph that serves GLOBAL degree
/// information from the shard metadata, so every degree-derived quantity
/// (RWR rank weights, transition probabilities at fringe nodes, the
/// unknown-degree bound) matches what a whole-graph accessor would report.
/// Does not own the graph or the metadata; both must outlive the accessor
/// (same contract as InMemoryAccessor).
class ShardAccessor final : public GraphAccessor {
 public:
  ShardAccessor(const Graph* shard_graph, const ShardMeta* meta)
      : graph_(shard_graph), meta_(meta) {}

  uint64_t NumNodes() const override { return graph_->NumNodes(); }
  uint64_t NumEdges() const override { return graph_->NumEdges(); }
  double WeightedDegree(NodeId u) override {
    ++stats_.degree_probes;
    return meta_->global_degree[u];
  }
  Status CopyNeighbors(NodeId u, std::vector<Neighbor>* out) override;
  void PrefetchNeighbors(std::span<const NodeId> nodes) override {
    graph_->PrefetchNeighbors(nodes);
  }
  const std::vector<NodeId>& DegreeOrder() const override {
    return meta_->degree_order();
  }
  double MaxWeightedDegree() const override;
  double ExternalDegreeBound() const override {
    return meta_->external_max_degree;
  }
  bool DenseIndexHint() const override { return true; }
  /// Interior rows carry their complete adjacency (the partitioner stores
  /// every edge of rings 0..h-1); fringe rows (the outermost halo ring)
  /// keep only the edges leading back into the halo and are truncated.
  bool CompleteAdjacency(NodeId u) const override {
    return u < meta_->num_interior;
  }

  const ShardMeta& meta() const { return *meta_; }

 private:
  const Graph* graph_;
  const ShardMeta* meta_;
};

/// Writes `partition` into `dir` as shard<i>.edges (local-id edge list) and
/// shard<i>.map (remap table + degree sidecar). `dir` must exist.
Status WriteShardFiles(const GraphPartition& partition,
                       const std::string& dir);

/// Conventional file names inside a shard directory.
std::string ShardEdgesPath(const std::string& dir, uint32_t shard);
std::string ShardMapPath(const std::string& dir, uint32_t shard);

/// Parses a shard<i>.map file (strict, `<path>:<line>:` errors) and
/// finalizes derived members.
Result<ShardMeta> ReadShardMap(const std::string& path);

/// Loads a shard edge list against its metadata: the node count is pinned
/// to meta.num_local() so trailing isolated core nodes survive, and edge
/// endpoints are validated against it.
Result<Graph> ReadShardGraph(const std::string& path, const ShardMeta& meta);

/// Seed-to-shard routing table, assembled from every shard's metadata. The
/// router maps a QUERY's global seed to (owning shard, local id), and maps
/// result node ids back. Build() validates that the metas form a partition:
/// every global node is core in exactly one shard.
class ShardRouteTable {
 public:
  static Result<ShardRouteTable> Build(std::vector<ShardMeta> metas);

  uint64_t global_nodes() const { return shard_of_.size(); }
  size_t num_shards() const { return local_to_global_.size(); }

  /// Owning shard of a global node (valid after Build succeeded).
  uint32_t ShardOf(NodeId global) const { return shard_of_[global]; }
  /// Local id of a global node within its owning shard.
  NodeId LocalOf(NodeId global) const { return local_of_[global]; }

  /// Reverse translation for response node ids coming back from a shard.
  Result<NodeId> ToGlobal(uint32_t shard, NodeId local) const;

 private:
  std::vector<uint32_t> shard_of_;               // per global node
  std::vector<NodeId> local_of_;                 // per global node
  std::vector<std::vector<NodeId>> local_to_global_;  // per shard
};

}  // namespace flos

#endif  // FLOS_GRAPH_PARTITION_H_

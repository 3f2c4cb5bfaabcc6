// Dynamic local subgraph maintained by FLoS during search.
//
// Tracks the visited set S, the within-S transition structure (the matrix T
// restricted to S), each node's full neighbor list, and boundary membership
// (delta-S = visited nodes with at least one unvisited neighbor). Nodes are
// given dense local indices in visit order; all bound computations run on
// local indices.
//
// A node "joins S" when its neighbor list is fetched through the
// GraphAccessor; the number of fetches equals |S|, matching the paper's
// "number of visited nodes".
//
// Adjacency lives in a FLAT, APPEND-ONLY ARENA. When a node joins S it gets
// one exact-size span: its fetched neighbor list, and at the same offsets
// in two parallel structure-of-arrays (`LocalId` column indices, `double`
// transition weights) its within-S row. Rows fill their spans in append
// order and never move, and a full bound sweep streams two dense arrays
// instead of one heap-allocated vector per node. The bound kernels
// (core/sweep_kernel.h) read these arrays directly.
//
// Reuse: a LocalGraph is a per-worker workspace, not a per-query object.
// Reset() returns it to the pre-Init state in O(|S|) without releasing any
// storage — the node index is epoch-versioned (core/node_index.h)
// and every per-query vector keeps its capacity — so steady-state queries
// perform no allocation and no hashing on the hot membership checks when
// the accessor advertises DenseIndexHint().

#ifndef FLOS_CORE_LOCAL_GRAPH_H_
#define FLOS_CORE_LOCAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/node_index.h"
#include "graph/accessor.h"
#include "graph/graph.h"
#include "util/check.h"
#include "util/status.h"

namespace flos {

/// Local (dense, within-S) node index.
using LocalId = uint32_t;

inline constexpr LocalId kInvalidLocal = static_cast<LocalId>(-1);

/// Zero-copy view of one within-S transition row: parallel index/weight
/// arrays of length `len` (structure-of-arrays). Valid until the next
/// Expand/Init/Reset call on the owning LocalGraph.
struct LocalRow {
  const LocalId* idx;
  const double* weight;
  uint32_t len;

  uint32_t size() const { return len; }
};

/// The whole per-query state of a LocalGraph in one copyable struct. The
/// live workspace holds one, and the warm-subgraph cache
/// (core/subgraph_cache.h) stores a copy: SaveSnapshot is one assignment,
/// RestoreSnapshot one assignment plus rebuilding the node index from
/// `local_to_global` and `adjacent`, with no accessor call.
///
/// Adjacency lives in one flat, append-only arena. Visited node i owns the
/// exact-size span [span[i], span[i+1]): `neighbors` holds its fetched list
/// there, and the parallel `row_idx`/`row_weight` arrays hold its within-S
/// row (local ids and transition probabilities) in the first row_len[i]
/// slots of the same span. Adjacency is symmetric, so a row never outgrows
/// its node's fetched degree.
struct LocalGraphSnapshot {
  NodeId query = kInvalidNode;
  uint32_t query_count = 0;
  bool truncated_seen = false;    ///< any visited row had hidden mass
  uint32_t boundary_count = 0;    ///< # nodes with outside_count > 0
  // Per visited node, indexed by LocalId (visit order).
  std::vector<NodeId> local_to_global;
  std::vector<double> weighted_degree;
  /// Per-node hidden (non-enumerable) edge mass; see HiddenMass(). A node
  /// with hidden mass carries a phantom +1 in outside_count that is never
  /// decremented: its hidden neighbors can never be visited through this
  /// accessor, so it stays boundary — and the query stays uncertifiable —
  /// forever.
  std::vector<double> hidden_mass;
  std::vector<uint32_t> outside_count;
  std::vector<uint32_t> hop_dist;
  std::vector<uint32_t> row_len;
  std::vector<double> row_in_mass;
  /// Span offsets into the arena; Size() + 1 entries, span[0] == 0.
  std::vector<uint64_t> span = {0};
  // The arena: span[Size()] entries each.
  std::vector<Neighbor> neighbors;
  std::vector<LocalId> row_idx;
  std::vector<double> row_weight;
  /// Every node that was EVER adjacent to S this query, in order of first
  /// adjacency (its adjacency id), with its probed weighted degree. A
  /// superset of delta-S-bar: membership in the current delta-S-bar
  /// additionally requires being unvisited (see IsOutsideAdjacent).
  std::vector<NodeId> adjacent;
  std::vector<double> adjacent_degree;

  uint32_t Size() const { return static_cast<uint32_t>(local_to_global.size()); }

  /// Returns to the empty pre-Init state, keeping every buffer's capacity.
  void Clear();
};

/// One entry of the workspace's node index: a node's local id once it is
/// visited, and its adjacency id once it was first adjacent to S. Each is
/// kInvalidLocal until then, so one lookup answers "visited?", "adjacent?"
/// and both ids.
struct NodeSlot {
  LocalId local = kInvalidLocal;
  uint32_t adj = kInvalidLocal;
};

/// The visited subgraph S with its boundary bookkeeping.
class LocalGraph {
 public:
  /// `accessor` must outlive the LocalGraph. Allocates the node index
  /// sized to the accessor's hint (a dense slot array for in-memory graphs,
  /// open-addressing hashing for disk graphs).
  explicit LocalGraph(GraphAccessor* accessor);

  LocalGraph(const LocalGraph&) = delete;
  LocalGraph& operator=(const LocalGraph&) = delete;

  /// Adds the query node as local id 0. Must be called exactly once per
  /// query (after construction or Reset()).
  Status Init(NodeId query);

  /// Multi-source variant: the queries become local ids 0..queries.size()-1
  /// and act as one absorbing set (walks stop at ANY of them). Queries must
  /// be distinct and in range. Must be called exactly once per query.
  Status Init(const std::vector<NodeId>& queries);

  /// Returns to the pre-Init state so the workspace can serve the next
  /// query. Keeps every buffer's capacity; O(|S|).
  void Reset();

  /// Expands node `u` (must be visited): every unvisited neighbor of `u`
  /// joins S, in list order, after one GraphAccessor::PrefetchNeighbors
  /// hint naming all of them. Returns the number of nodes added.
  Result<uint32_t> Expand(LocalId u);

  /// Number of visited nodes |S|.
  uint32_t Size() const { return state_.Size(); }

  /// True iff `global` is visited.
  bool Contains(NodeId global) const {
    return LocalIndex(global) != kInvalidLocal;
  }

  /// Local id of a visited node, or kInvalidLocal. Single index probe;
  /// prefer one LocalIndex call over Contains-then-LocalIndex pairs.
  LocalId LocalIndex(NodeId global) const {
    const NodeSlot* slot = index_.Find(global);
    return slot == nullptr ? kInvalidLocal : slot->local;
  }

  NodeId GlobalId(LocalId local) const { return state_.local_to_global[local]; }

  /// Weighted degree w_i (over ALL neighbors, visited or not).
  double WeightedDegree(LocalId local) const {
    return state_.weighted_degree[local];
  }

  /// Number of i's neighbors currently outside S. 0 means interior.
  uint32_t OutsideCount(LocalId local) const {
    return state_.outside_count[local];
  }

  /// True iff i is in the boundary delta-S.
  bool IsBoundary(LocalId local) const {
    return state_.outside_count[local] > 0;
  }

  /// Number of boundary nodes |delta-S| (maintained, O(1)).
  uint32_t BoundaryCount() const { return state_.boundary_count; }

  /// True iff no visited node has an unvisited neighbor (the query's whole
  /// component has been visited). O(1): the boundary-node count is
  /// maintained where outside counts change.
  bool Exhausted() const { return state_.boundary_count == 0; }

  /// Within-S transition row of node i: visited neighbors j with
  /// p_ij = w_ij / w_i (FULL weighted degree), as an SoA view into i's
  /// arena span.
  LocalRow Row(LocalId local) const {
    FLOS_DCHECK(local < Size(), "Row: local id out of range");
    const uint64_t start = state_.span[local];
    return {state_.row_idx.data() + start, state_.row_weight.data() + start,
            state_.row_len[local]};
  }

  /// Issues software prefetches for row i's index and weight arrays. The
  /// bound sweeps call this one row ahead so the row is in cache by the
  /// time the scan reaches it.
  void PrefetchRow(LocalId local) const {
    const uint64_t start = state_.span[local];
    __builtin_prefetch(state_.row_idx.data() + start, 0, 1);
    __builtin_prefetch(state_.row_weight.data() + start, 0, 1);
  }

  /// Sum of row i's transition probabilities (the in-S mass
  /// sum_{j in S} p_ij), maintained incrementally as entries are appended.
  /// Bitwise equal to summing Row(i) in order.
  double RowInMass(LocalId local) const { return state_.row_in_mass[local]; }

  /// Weighted-degree mass of node i's edges the accessor cannot enumerate
  /// (a ShardAccessor's truncated fringe rows): WeightedDegree(i) minus the
  /// fetched list's sum. 0 on accessors with complete adjacency, so every
  /// full-graph code path is unchanged. The transition fraction
  /// HiddenMass(i) / WeightedDegree(i) leaves S through edges no fetched
  /// list ever reports; the bound engines must treat it as permanently
  /// outside mass routed to the dummy node.
  double HiddenMass(LocalId local) const { return state_.hidden_mass[local]; }

  /// True once any visited row had hidden mass. Bound refinements that
  /// assume complete neighbor enumeration must degrade conservatively when
  /// this is set.
  bool HasTruncatedRows() const { return state_.truncated_seen; }

  /// Full neighbor list of visited node i (global ids), as fetched. Valid
  /// until the next Expand/Init/Reset call.
  std::span<const Neighbor> Neighbors(LocalId local) const {
    const uint64_t start = state_.span[local];
    return {state_.neighbors.data() + start,
            static_cast<size_t>(state_.span[local + 1] - start)};
  }

  /// Weighted degree of an arbitrary (possibly unvisited) node. Visited
  /// nodes and nodes adjacent to S answer from the workspace without an
  /// accessor call (adjacent degrees are probed once, at first adjacency);
  /// any other node costs one uncached accessor call. Used by the
  /// self-loop tightening, which needs degrees of unvisited boundary nodes.
  double ProbeDegree(NodeId global);

  /// Number of nodes ever adjacent to S this query; adjacency ids run
  /// 0..AdjacentCount()-1 in order of first adjacency.
  uint32_t AdjacentCount() const {
    return static_cast<uint32_t>(state_.adjacent.size());
  }

  /// Adjacency id of `global`, or kInvalidLocal if it was never adjacent
  /// to S. Every unvisited neighbor of a visited node has one.
  uint32_t AdjacentIndex(NodeId global) const {
    const NodeSlot* slot = index_.Find(global);
    return slot == nullptr ? kInvalidLocal : slot->adj;
  }

  /// Adjacency id of `global` if it is unvisited and adjacent to S (in
  /// delta-S-bar), else kInvalidLocal. One index probe; the boundary scans
  /// of the bound engine call it once per outside edge.
  uint32_t OutsideAdjacentIndex(NodeId global) const {
    const NodeSlot* slot = index_.Find(global);
    return slot == nullptr || slot->local != kInvalidLocal ? kInvalidLocal
                                                           : slot->adj;
  }

  NodeId AdjacentNode(uint32_t k) const { return state_.adjacent[k]; }

  /// Weighted degree of the node with adjacency id k, probed when it first
  /// became adjacent.
  double AdjacentDegree(uint32_t k) const { return state_.adjacent_degree[k]; }

  /// Nodes whose outside-neighbor set changed since the last call (newly
  /// added nodes and their visited neighbors), deduplicated. The bound
  /// engine uses this to refresh boundary coefficients incrementally.
  /// Calling this clears the set. The returned reference is valid until
  /// the next TakeDirtyNodes or Expand call.
  const std::vector<LocalId>& TakeDirtyNodes();

  /// Hop distance from the query to `local` along paths WITHIN S
  /// (maintained incrementally with decrease-relaxation, so it equals the
  /// true within-S shortest hop count).
  uint32_t HopDistance(LocalId local) const { return state_.hop_dist[local]; }

  /// A certified lower bound on the hop distance of every UNVISITED node:
  /// 1 + min over boundary nodes of HopDistance. Any path from q must cross
  /// the boundary before leaving S. Returns a large sentinel when S is
  /// exhausted (no unvisited nodes are reachable). Used by the THT bounds.
  uint32_t UnvisitedHopLowerBound() const;

  /// True iff `global` is unvisited but adjacent to S (in delta-S-bar).
  bool IsOutsideAdjacent(NodeId global) const {
    return OutsideAdjacentIndex(global) != kInvalidLocal;
  }

  GraphAccessor* accessor() { return accessor_; }

  /// First (or only) query node.
  NodeId query() const { return state_.query; }

  /// Number of query (source) nodes; their local ids are 0..count-1.
  uint32_t query_count() const { return state_.query_count; }

  /// True iff `local` is one of the query nodes (they are added first, so
  /// this is an index comparison).
  bool IsQueryLocal(LocalId local) const { return local < state_.query_count; }

  /// Copies this query's state into `out` (see LocalGraphSnapshot).
  /// Must be Init'd. The snapshot is independent of this workspace and
  /// stays valid across Reset.
  void SaveSnapshot(LocalGraphSnapshot* out) const;

  /// Rebuilds the Init'd state captured by SaveSnapshot into this
  /// workspace. Must be called in the pre-Init state (after Reset), on a
  /// LocalGraph over the SAME graph the snapshot was taken from (the
  /// caller keys snapshots by graph epoch). All nodes come back dirty so
  /// the bound engine's next coefficient refresh recomputes everything.
  void RestoreSnapshot(const LocalGraphSnapshot& snap);

 private:
  /// Fetches `global`'s list into a new span and joins it to S. A node
  /// that was adjacent takes the degree probed at its first adjacency; a
  /// query node probes it here. Returns
  /// Corruption when a visited neighbor's list does not name `global`
  /// (asymmetric adjacency would overflow that neighbor's span).
  Status Add(NodeId global);

  /// Audit tier: recomputes the maintained bookkeeping — per-node outside
  /// counts and the boundary count from the stored neighbor lists, and
  /// each row's in-S mass by re-summing the row in append order — and
  /// aborts on any mismatch with the incrementally maintained values.
  /// O(edges(S)); called from Init/Expand under FLOS_AUDIT_SCOPE only.
  void AuditBookkeeping() const;

  /// Appends entry (j, p) to row i. The caller guarantees a free slot.
  void RowAppend(LocalId i, LocalId j, double p);

  GraphAccessor* accessor_;
  LocalGraphSnapshot state_;
  /// NodeId -> {local id, adjacency id}: every visited or ever-adjacent
  /// node has a slot.
  NodeMap<NodeSlot> index_;
  std::vector<Neighbor> scratch_;        // fetch buffer in Add
  std::vector<NodeId> expand_scratch_;   // unvisited neighbors in Expand
  std::vector<LocalId> relax_scratch_;   // hop-distance relaxation queue
  std::vector<LocalId> dirty_;
  std::vector<LocalId> dirty_out_;
  std::vector<bool> in_dirty_;
};

}  // namespace flos

#endif  // FLOS_CORE_LOCAL_GRAPH_H_

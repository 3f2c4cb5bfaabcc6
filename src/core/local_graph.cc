#include "core/local_graph.h"

#include <algorithm>
#include <limits>
#include <string>

namespace flos {

namespace {
constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max() - 1;
}  // namespace

void LocalGraphSnapshot::Clear() {
  query = kInvalidNode;
  query_count = 0;
  truncated_seen = false;
  boundary_count = 0;
  local_to_global.clear();
  weighted_degree.clear();
  hidden_mass.clear();
  outside_count.clear();
  hop_dist.clear();
  row_len.clear();
  row_in_mass.clear();
  span.assign(1, 0);
  neighbors.clear();
  row_idx.clear();
  row_weight.clear();
  adjacent.clear();
  adjacent_degree.clear();
}

LocalGraph::LocalGraph(GraphAccessor* accessor) : accessor_(accessor) {
  index_.Configure(accessor->NumNodes(), accessor->DenseIndexHint());
}

void LocalGraph::Reset() {
  state_.Clear();
  index_.Reset();
  dirty_.clear();
  dirty_out_.clear();
  in_dirty_.clear();
}

Status LocalGraph::Init(NodeId query) {
  return Init(std::vector<NodeId>{query});
}

Status LocalGraph::Init(const std::vector<NodeId>& queries) {
  if (state_.query != kInvalidNode) {
    return Status::FailedPrecondition(
        "LocalGraph already initialized (call Reset between queries)");
  }
  if (queries.empty()) {
    return Status::InvalidArgument("need at least one query node");
  }
  for (const NodeId q : queries) {
    if (q >= accessor_->NumNodes()) {
      return Status::OutOfRange("query node out of range");
    }
    if (Contains(q)) {
      return Status::InvalidArgument("duplicate query node " +
                                     std::to_string(q));
    }
    ++state_.query_count;  // before Add: hop distances see it as a source
    FLOS_RETURN_IF_ERROR(Add(q));
  }
  state_.query = queries.front();
  FLOS_AUDIT_SCOPE { AuditBookkeeping(); }
  return Status::OK();
}

void LocalGraph::AuditBookkeeping() const {
  const uint32_t n = Size();
  FLOS_CHECK_EQ(state_.span.size(), static_cast<size_t>(n) + 1,
                "span offsets do not match the visited set");
  FLOS_CHECK_EQ(state_.span[n], state_.neighbors.size(),
                "last span does not end at the arena end");
  uint32_t boundary = 0;
  for (LocalId i = 0; i < n; ++i) {
    // Ground-truth outside count: re-resolve every stored neighbor's
    // visited status against the index. Every unvisited neighbor must be
    // in the adjacency index.
    uint32_t outside = 0;
    for (const Neighbor& nb : Neighbors(i)) {
      if (Contains(nb.id)) continue;
      ++outside;
      FLOS_CHECK(AdjacentIndex(nb.id) != kInvalidLocal,
                 "unvisited neighbor missing from the adjacency index");
    }
    if (state_.hidden_mass[i] > 0) ++outside;  // the phantom hidden neighbor
    FLOS_CHECK_EQ(state_.outside_count[i], outside,
                  "maintained outside count diverged from neighbor lists");
    if (outside > 0) ++boundary;

    // The row fills a prefix of the node's own span.
    FLOS_CHECK_LE(state_.span[i], state_.span[i + 1],
                  "span offsets decrease");
    FLOS_CHECK_LE(state_.row_len[i], state_.span[i + 1] - state_.span[i],
                  "row longer than its span");

    // RowInMass is documented bitwise-equal to summing the row in append
    // order, so compare EXACTLY: any difference means an append bypassed
    // the incremental accumulator.
    const LocalRow row = Row(i);
    double mass = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      FLOS_CHECK(row.idx[e] < n, "row entry references an unvisited node");
      mass += row.weight[e];
    }
    FLOS_CHECK_EQ(RowInMass(i), mass,
                  "maintained row in-mass diverged from the stored row");
  }
  FLOS_CHECK_EQ(BoundaryCount(), boundary,
                "maintained boundary count diverged from ground truth");
}

void LocalGraph::RowAppend(LocalId i, LocalId j, double p) {
  FLOS_DCHECK(p >= 0.0, "transition probabilities are non-negative");
  const uint64_t at = state_.span[i] + state_.row_len[i];
  FLOS_DCHECK(at < state_.span[i + 1], "row append past its span");
  state_.row_idx[at] = j;
  state_.row_weight[at] = p;
  ++state_.row_len[i];
  state_.row_in_mass[i] += p;
}

Status LocalGraph::Add(NodeId global) {
  LocalGraphSnapshot& s = state_;
  const auto local = static_cast<LocalId>(s.local_to_global.size());
  // Read the adjacency id now: inserting neighbors below may move the slot.
  NodeSlot* const self = index_.FindOrInsert(global).first;
  self->local = local;
  const uint32_t adj = self->adj;
  s.local_to_global.push_back(global);
  in_dirty_.push_back(true);
  dirty_.push_back(local);

  FLOS_RETURN_IF_ERROR(accessor_->CopyNeighbors(global, &scratch_));
  // The degree comes from the accessor (probed when the node first became
  // adjacent; a query node probes it here), NOT from summing the fetched
  // list:
  // on truncated rows (a ShardAccessor's halo fringe) the fetched sum is
  // short, and normalizing transitions by it would overweight the visible
  // edges (RowInMass -> 1) and silently delete the escaping mass the upper
  // bounds must route to the dummy node. On complete rows the accessor
  // degree IS the fetched sum in the same accumulation order, so
  // whole-graph behavior is unchanged. Hidden mass below the shard map
  // degree sidecar's own round-trip tolerance (ReadShardGraph's 1e-9
  // cross-check) is indistinguishable from serialization noise and snaps
  // to zero rather than leaving the row boundary forever.
  const double wi = adj != kInvalidLocal ? s.adjacent_degree[adj]
                                         : accessor_->WeightedDegree(global);
  double visible = 0;
  for (const Neighbor& nb : scratch_) visible += nb.weight;
  double hidden = 0;
  if (!accessor_->CompleteAdjacency(global)) {
    hidden = wi - visible;
    if (!(hidden > 1e-9 * wi)) hidden = 0;
  }
  s.weighted_degree.push_back(wi);
  s.hidden_mass.push_back(hidden);
  if (hidden > 0) s.truncated_seen = true;

  // This node's exact-size span: the fetched list, and room for its row.
  s.neighbors.insert(s.neighbors.end(), scratch_.begin(), scratch_.end());
  const uint64_t end = s.neighbors.size();
  s.span.push_back(end);
  s.row_idx.resize(end);
  s.row_weight.resize(end);
  s.row_len.push_back(0);
  s.row_in_mass.push_back(0.0);

  // Build this node's within-S row and patch existing rows/boundary counts
  // with ONE index probe per neighbor; an unvisited neighbor gets its
  // adjacency id (with its probed degree) the first time it is seen.
  uint32_t outside = 0;
  for (const Neighbor& nb : scratch_) {
    const auto [slot, inserted] = index_.FindOrInsert(nb.id);
    const LocalId j = slot->local;
    if (j == kInvalidLocal) {
      ++outside;
      if (inserted) {
        slot->adj = AdjacentCount();
        s.adjacent.push_back(nb.id);
        s.adjacent_degree.push_back(accessor_->WeightedDegree(nb.id));
      }
      continue;
    }
    // Symmetric, loop-free lists guarantee that j counted `global` as
    // outside and kept a free row slot for it; anything else would wrap
    // j's outside count or overflow its span.
    if (j == local || s.outside_count[j] == 0 ||
        s.row_len[j] == s.span[j + 1] - s.span[j]) {
      return Status::Corruption("node " + std::to_string(global) +
                                " lists " + std::to_string(nb.id) +
                                ", whose list does not name it back");
    }
    if (wi > 0) RowAppend(local, j, nb.weight / wi);
    // Reverse direction: j gains an in-S neighbor.
    if (s.weighted_degree[j] > 0) {
      RowAppend(j, local, nb.weight / s.weighted_degree[j]);
    }
    if (--s.outside_count[j] == 0) --s.boundary_count;
    if (!in_dirty_[j]) {
      in_dirty_[j] = true;
      dirty_.push_back(j);
    }
  }
  // Phantom outside neighbor for hidden mass: the edges behind it can
  // never be fetched, so no future Add ever decrements it back — the node
  // stays boundary (and the frontier stays clipped) for the whole query.
  if (hidden > 0) ++outside;
  s.outside_count.push_back(outside);
  if (outside > 0) ++s.boundary_count;

  // Within-S hop distances: initialize from visited neighbors, then relax
  // decreases through existing rows (new edges can create shortcuts).
  // Query (source) nodes are distance 0.
  uint32_t d = local < s.query_count ? 0 : kUnreachable;
  {
    const LocalRow row = Row(local);
    for (uint32_t e = 0; e < row.len; ++e) {
      const uint32_t dj = s.hop_dist[row.idx[e]];
      d = std::min(d, dj == kUnreachable ? kUnreachable : dj + 1);
    }
  }
  s.hop_dist.push_back(d);
  relax_scratch_.clear();
  relax_scratch_.push_back(local);
  for (size_t head = 0; head < relax_scratch_.size(); ++head) {
    const LocalId u = relax_scratch_[head];
    if (s.hop_dist[u] == kUnreachable) continue;
    const LocalRow row = Row(u);
    for (uint32_t e = 0; e < row.len; ++e) {
      const LocalId j = row.idx[e];
      if (s.hop_dist[u] + 1 < s.hop_dist[j]) {
        s.hop_dist[j] = s.hop_dist[u] + 1;
        relax_scratch_.push_back(j);
      }
    }
  }
  return Status::OK();
}

uint32_t LocalGraph::UnvisitedHopLowerBound() const {
  uint32_t best = kUnreachable;
  for (LocalId i = 0; i < Size(); ++i) {
    if (state_.outside_count[i] > 0) best = std::min(best, state_.hop_dist[i]);
  }
  return best == kUnreachable ? kUnreachable : best + 1;
}

Result<uint32_t> LocalGraph::Expand(LocalId u) {
  if (u >= Size()) {
    return Status::OutOfRange("local id out of range in Expand");
  }
  // Snapshot the unvisited neighbor ids first: Add() grows the arena, so
  // iterating the span while adding would be unsafe. Accessor neighbor
  // lists are sorted and duplicate-free, and Add(v) adds exactly v, so no
  // re-check is needed in the second loop — one index probe per neighbor.
  expand_scratch_.clear();
  for (const Neighbor& nb : Neighbors(u)) {
    if (LocalIndex(nb.id) == kInvalidLocal) expand_scratch_.push_back(nb.id);
  }
  accessor_->PrefetchNeighbors(expand_scratch_);
  for (const NodeId v : expand_scratch_) {
    FLOS_RETURN_IF_ERROR(Add(v));
  }
  FLOS_AUDIT_SCOPE {
    if (!expand_scratch_.empty()) AuditBookkeeping();
  }
  return static_cast<uint32_t>(expand_scratch_.size());
}

const std::vector<LocalId>& LocalGraph::TakeDirtyNodes() {
  dirty_out_.swap(dirty_);
  dirty_.clear();
  for (const LocalId i : dirty_out_) in_dirty_[i] = false;
  return dirty_out_;
}

double LocalGraph::ProbeDegree(NodeId global) {
  if (const NodeSlot* slot = index_.Find(global)) {
    return slot->adj != kInvalidLocal ? state_.adjacent_degree[slot->adj]
                                      : state_.weighted_degree[slot->local];
  }
  return accessor_->WeightedDegree(global);
}

void LocalGraph::SaveSnapshot(LocalGraphSnapshot* out) const {
  FLOS_CHECK(state_.query != kInvalidNode,
             "SaveSnapshot needs an Init'd graph");
  *out = state_;
}

void LocalGraph::RestoreSnapshot(const LocalGraphSnapshot& snap) {
  FLOS_CHECK(state_.query == kInvalidNode,
             "RestoreSnapshot requires the pre-Init state (call Reset)");
  state_ = snap;
  const uint32_t n = Size();
  for (uint32_t k = 0; k < AdjacentCount(); ++k) {
    index_.FindOrInsert(state_.adjacent[k]).first->adj = k;
  }
  for (LocalId i = 0; i < n; ++i) {
    index_.FindOrInsert(state_.local_to_global[i]).first->local = i;
  }
  // Every node dirty: the consuming bound engine recomputes all boundary
  // coefficients on its next refresh instead of trusting any prior state.
  dirty_.resize(n);
  for (LocalId i = 0; i < n; ++i) dirty_[i] = i;
  dirty_out_.clear();
  in_dirty_.assign(n, true);
  FLOS_AUDIT_SCOPE { AuditBookkeeping(); }
}

}  // namespace flos

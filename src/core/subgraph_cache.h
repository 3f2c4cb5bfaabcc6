// Warm-subgraph cache: expanded local subgraphs + converged bounds.
//
// The second tier of the serving cache hierarchy. The first tier
// (core/query_cache.h) stores certified RESULTS — a hit answers in
// microseconds but only for an exact (query, measure, k, c, L) repeat.
// This tier stores the expensive intermediate a cold certified query
// spends most of its milliseconds producing: the expanded LocalGraph
// around a seed and the converged bound vector over it. A result-cache
// miss on a warm seed then skips expansion entirely and RESUMES sweeping
// from the cached bounds — usually certifying immediately, since the
// cached state was tight enough to certify once before.
//
// Keying: a snapshot depends only on the seed, the internal fixed point
// the bounds solve, and the topology:
//
//     (seed, bound family, alpha, horizon, graph epoch)
//
// NOT on k or the rank mode — so one snapshot serves k=10 and k=50, and
// PHP at c shares entries with EI/DHT at 1-c (identical fixed point,
// BoundTraitsFor maps both to kFixedPoint with the same alpha) and with
// RWR at the same alpha (the degree-weighted RANKING differs, the bound
// system does not). kHorizonDp snapshots key on the horizon instead of
// alpha.
//
// Invalidation contract: exact and epoch-based, identical to QueryCache —
// the key carries GraphAccessor::Epoch, so a snapshot expanded against an
// older topology can never match a current lookup; stale entries age out
// through the LRU. Each entry stores its epoch redundantly and a hit
// cross-checks it under FLOS_AUDIT ("subgraph cache serving a stale graph
// epoch"), turning a keying bug into a crash instead of bounds computed on
// a phantom topology.
//
// Soundness of resuming: every cached quantity is a certified fact about
// (seed, family, alpha/horizon, epoch) alone. The bounds are certified
// intervals for the fixed point on the cached visited set; the dummies are
// certified dominators of the unvisited values; growth and further sweeps
// from that state are exactly the monotone continuation the engine would
// have performed had it never stopped. Options that change the system
// itself (tolerance tightenings, self-loop constructions) are fixed per
// server — the same assumption QueryCache documents.
//
// Snapshots are immutable once inserted and handed out as
// shared_ptr<const>, so a reader never blocks an evictor: the LRU can drop
// an entry while an engine is still restoring from it. Thread-safe:
// SubgraphCache is an EpochLruCache (util/lru_cache.h), the template it
// shares with QueryCache — one leaf mutex around the LRU (see DESIGN.md),
// hit/miss counters and the stale-epoch audit; the critical section is a
// hash probe plus a shared_ptr copy.

#ifndef FLOS_CORE_SUBGRAPH_CACHE_H_
#define FLOS_CORE_SUBGRAPH_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/local_graph.h"
#include "core/measure_traits.h"
#include "graph/graph.h"
#include "util/lru_cache.h"

namespace flos {

/// One cached warm subgraph: the expanded LocalGraph state plus the
/// converged bound vector and dummy values over it. Immutable after
/// insertion (shared across sessions by const pointer).
struct SubgraphSnapshot {
  LocalGraphSnapshot local;
  /// Interleaved (lower, upper) per LocalId; 2 * local.Size() doubles.
  std::vector<double> bounds;
  double dummy_mesh = 1.0;
  double dummy_tight = 1.0;
};

/// Everything that determines a snapshot's validity (see file comment:
/// deliberately independent of k and rank mode).
struct SubgraphCacheKey {
  NodeId seed = 0;
  BoundFamily family = BoundFamily::kFixedPoint;
  /// Fixed-point alpha; 0.0 for the horizon-DP family.
  double alpha = 0;
  /// DP horizon L; 0 for the fixed-point family.
  int horizon = 0;
  uint64_t epoch = 0;

  static constexpr const char* kStaleEpochMessage =
      "subgraph cache serving a stale graph epoch";

  struct Hash {
    size_t operator()(const SubgraphCacheKey& key) const {
      return HashFields(key.seed, key.family, key.alpha, key.horizon,
                        key.epoch);
    }
  };

  friend bool operator==(const SubgraphCacheKey&,
                         const SubgraphCacheKey&) = default;
};

/// LRU cache of warm subgraphs, shared by all worker engines of a server
/// (thread-safe). Lookup(key) returns nullptr on a miss.
class SubgraphCache final
    : public EpochLruCache<SubgraphCacheKey,
                           std::shared_ptr<const SubgraphSnapshot>> {
 public:
  using EpochLruCache::EpochLruCache;

  /// Builds the key for a seed under measure traits at the current epoch.
  static Key MakeKey(NodeId seed, const BoundTraits& traits, uint64_t epoch) {
    Key key;
    key.seed = seed;
    key.family = traits.family;
    key.alpha = traits.family == BoundFamily::kFixedPoint ? traits.alpha : 0.0;
    key.horizon = traits.family == BoundFamily::kHorizonDp ? traits.horizon : 0;
    key.epoch = epoch;
    return key;
  }
};

}  // namespace flos

#endif  // FLOS_CORE_SUBGRAPH_CACHE_H_

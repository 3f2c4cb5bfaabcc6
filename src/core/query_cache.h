// Certified-result cache for repeat k-NN queries.
//
// Serving workloads are Zipf-skewed: a small set of hot query nodes
// receives most of the traffic. A certified FLoS answer is EXACT, so for
// an unchanged graph re-running the search buys nothing — the cache stores
// certified results keyed by everything that determines them:
//
//     (query node, measure, k, c, tht_length, graph epoch)
//
// and serves a warm hit in microseconds, bypassing the search entirely
// while the engine workspaces stay warm for the misses.
//
// Invalidation contract (exact, epoch-based): the key carries the
// accessor's graph epoch (GraphAccessor::Epoch, bumped by DynamicGraph on
// every topology update). A lookup computes its key from the CURRENT
// epoch, so an entry certified against an older topology can never match
// again — no enumeration of affected queries, no TTL heuristics, no stale
// window. Superseded entries age out through the LRU order. Each entry
// additionally stores its epoch redundantly; under FLOS_AUDIT a hit
// cross-checks it against the key and aborts on disagreement ("query cache
// serving a stale graph epoch"), turning memory corruption or a future
// keying bug into a crash instead of a silently wrong certified answer.
//
// Only certified results (stats.exact) are admitted: uncertified answers
// depend on the deadline that produced them and are not reusable facts.
// One cache instance assumes one solver configuration (tolerance,
// tightenings, expansion batch) — the serving layer's situation, where
// ServerOptions fixes them; the per-request knobs are all in the key.
//
// Thread-safe: QueryCache is an EpochLruCache (util/lru_cache.h), the
// template it shares with the warm-subgraph tier — one leaf mutex around
// the LRU (see DESIGN.md), hit/miss counters and the stale-epoch audit.
// The critical section is a hash probe plus a list splice and a FlosResult
// copy (k entries), so contention is negligible next to even a warm-path
// network round trip. The per-cache rules sit in FlosEngine: only
// certified results are inserted, and a hit is marked stats.cache_hit.

#ifndef FLOS_CORE_QUERY_CACHE_H_
#define FLOS_CORE_QUERY_CACHE_H_

#include <cstddef>
#include <cstdint>

#include "core/flos.h"
#include "graph/graph.h"
#include "measures/measure.h"
#include "util/lru_cache.h"

namespace flos {

/// Everything that determines a certified answer.
struct QueryCacheKey {
  NodeId query = 0;
  Measure measure = Measure::kPhp;
  int k = 0;
  double c = 0;
  int tht_length = 0;
  uint64_t epoch = 0;
  /// LabelPredicate::Fingerprint() of the request's predicate (0 for
  /// unfiltered queries). A filtered answer is exact only relative to its
  /// predicate, so two requests with different predicates must never
  /// share an entry; the subgraph cache, by contrast, stays
  /// predicate-independent by design (see DESIGN.md "Filtered top-k").
  uint64_t predicate_fp = 0;

  static constexpr const char* kStaleEpochMessage =
      "query cache serving a stale graph epoch";

  struct Hash {
    size_t operator()(const QueryCacheKey& key) const {
      return HashFields(key.query, key.measure, key.k, key.c, key.tht_length,
                        key.epoch, key.predicate_fp);
    }
  };

  friend bool operator==(const QueryCacheKey&, const QueryCacheKey&) = default;
};

/// LRU cache of certified FlosResults, shared by all worker engines of a
/// server (thread-safe).
using QueryCache = EpochLruCache<QueryCacheKey, FlosResult>;

}  // namespace flos

#endif  // FLOS_CORE_QUERY_CACHE_H_

// Tests for the certified-result query cache: hit/miss semantics, the
// engine's certified-only admission rule, LRU eviction, exact epoch-based
// invalidation against a mutating DynamicGraph, concurrent use by several
// threads, and the FLOS_AUDIT backstop that a cache can never serve a
// stale graph epoch.

#include "core/query_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/flos.h"
#include "core/flos_engine.h"
#include "graph/dynamic_graph.h"
#include "tests/test_util.h"
#include "util/check.h"

namespace flos {
namespace {

using testing::RandomConnectedGraph;
using testing::ValueOrDie;

QueryCache::Key TestKey(NodeId query, uint64_t epoch = 0) {
  QueryCache::Key key;
  key.query = query;
  key.measure = Measure::kPhp;
  key.k = 10;
  key.c = 0.5;
  key.tht_length = 10;
  key.epoch = epoch;
  return key;
}

FlosResult CertifiedResult(NodeId top_node) {
  FlosResult result;
  ScoredNode s;
  s.node = top_node;
  s.score = 0.25;
  s.lower = 0.24;
  s.upper = 0.26;
  result.topk.push_back(s);
  result.stats.exact = true;
  result.stats.visited_nodes = 42;
  return result;
}

TEST(QueryCacheTest, MissThenHitReturnsStoredResult) {
  QueryCache cache(4);
  FlosResult out;
  EXPECT_FALSE(cache.Lookup(TestKey(7), &out));
  EXPECT_EQ(cache.misses(), 1u);

  cache.Insert(TestKey(7), CertifiedResult(3));
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.Lookup(TestKey(7), &out));
  EXPECT_EQ(cache.hits(), 1u);
  ASSERT_EQ(out.topk.size(), 1u);
  EXPECT_EQ(out.topk[0].node, 3u);
  EXPECT_TRUE(out.stats.exact) << "hits must stay certified";
  // The engine marks a hit stats.cache_hit (EngineHitsThenEpochBumpInvalidates).
}

TEST(QueryCacheTest, KeyFieldsAllDiscriminate) {
  QueryCache cache(16);
  cache.Insert(TestKey(7), CertifiedResult(3));
  FlosResult out;
  QueryCache::Key other = TestKey(8);
  EXPECT_FALSE(cache.Lookup(other, &out));
  other = TestKey(7);
  other.measure = Measure::kRwr;
  EXPECT_FALSE(cache.Lookup(other, &out));
  other = TestKey(7);
  other.k = 11;
  EXPECT_FALSE(cache.Lookup(other, &out));
  other = TestKey(7);
  other.c = 0.6;
  EXPECT_FALSE(cache.Lookup(other, &out));
  other = TestKey(7);
  other.epoch = 1;
  EXPECT_FALSE(cache.Lookup(other, &out))
      << "a bumped epoch must never match an older entry";
}

// Only certified answers are admitted: a max_visited-clipped search is a
// best-effort answer, so the engine must not deposit it.
TEST(QueryCacheTest, RejectsUncertifiedResults) {
  DynamicGraph dyn{RandomConnectedGraph(300, 900, 11)};
  QueryCache cache(4);
  FlosEngine engine(&dyn);
  engine.set_query_cache(&cache);
  FlosOptions clipped;
  clipped.max_visited = 12;
  const FlosResult first = ValueOrDie(engine.TopK(5, 8, clipped));
  ASSERT_FALSE(first.stats.exact) << "the clip must cut the proof short";
  EXPECT_EQ(cache.size(), 0u) << "only certified results may be cached";
  const FlosResult repeat = ValueOrDie(engine.TopK(5, 8, clipped));
  EXPECT_FALSE(repeat.stats.cache_hit);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsed) {
  QueryCache cache(2);
  cache.Insert(TestKey(1), CertifiedResult(10));
  cache.Insert(TestKey(2), CertifiedResult(20));
  FlosResult out;
  ASSERT_TRUE(cache.Lookup(TestKey(1), &out));  // freshen 1 -> 2 is LRU
  cache.Insert(TestKey(3), CertifiedResult(30));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup(TestKey(2), &out))
      << "key 2 was least recently used and must be evicted";
  EXPECT_TRUE(cache.Lookup(TestKey(1), &out));
  EXPECT_TRUE(cache.Lookup(TestKey(3), &out));
}

TEST(QueryCacheTest, ZeroCapacityDisablesAdmission) {
  QueryCache cache(0);
  cache.Insert(TestKey(1), CertifiedResult(10));
  EXPECT_EQ(cache.size(), 0u);
  FlosResult out;
  EXPECT_FALSE(cache.Lookup(TestKey(1), &out));
}

TEST(QueryCacheTest, ClearEmptiesTheCache) {
  QueryCache cache(4);
  cache.Insert(TestKey(1), CertifiedResult(10));
  cache.Insert(TestKey(2), CertifiedResult(20));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  FlosResult out;
  EXPECT_FALSE(cache.Lookup(TestKey(1), &out));
}

// The end-to-end contract: an engine with a cache serves the second
// identical query from the cache, and a graph mutation (epoch bump)
// exactly invalidates — the next query recomputes against the new graph.
TEST(QueryCacheTest, EngineHitsThenEpochBumpInvalidates) {
  DynamicGraph dyn{RandomConnectedGraph(300, 900, 11)};
  QueryCache cache(64);
  FlosEngine engine(&dyn);
  engine.set_query_cache(&cache);

  FlosOptions options;
  options.measure = Measure::kPhp;
  const FlosResult first = ValueOrDie(engine.TopK(5, 8, options));
  ASSERT_TRUE(first.stats.exact);
  EXPECT_FALSE(first.stats.cache_hit);
  EXPECT_EQ(cache.size(), 1u);

  const FlosResult second = ValueOrDie(engine.TopK(5, 8, options));
  EXPECT_TRUE(second.stats.cache_hit) << "identical repeat query must hit";
  EXPECT_TRUE(second.stats.exact);
  ASSERT_EQ(second.topk.size(), first.topk.size());
  for (size_t i = 0; i < first.topk.size(); ++i) {
    EXPECT_EQ(second.topk[i].node, first.topk[i].node);
    EXPECT_DOUBLE_EQ(second.topk[i].score, first.topk[i].score);
  }

  // Mutate the graph: the epoch bump makes every cached key unreachable,
  // so the same query recomputes — and agrees with a cache-free engine
  // over the updated graph.
  const uint64_t epoch_before = dyn.Epoch();
  FLOS_ASSERT_OK(dyn.AddEdge(5, 250, 3.0));
  EXPECT_GT(dyn.Epoch(), epoch_before);
  const FlosResult third = ValueOrDie(engine.TopK(5, 8, options));
  EXPECT_FALSE(third.stats.cache_hit)
      << "a graph update must invalidate the cached answer";
  const FlosResult fresh = ValueOrDie(FlosTopK(&dyn, 5, 8, options));
  ASSERT_EQ(third.topk.size(), fresh.topk.size());
  for (size_t i = 0; i < fresh.topk.size(); ++i) {
    EXPECT_EQ(third.topk[i].node, fresh.topk[i].node);
    EXPECT_NEAR(third.topk[i].score, fresh.topk[i].score, 1e-12);
  }

  // And the post-update answer is itself cached under the new epoch.
  const FlosResult fourth = ValueOrDie(engine.TopK(5, 8, options));
  EXPECT_TRUE(fourth.stats.cache_hit);
}

TEST(QueryCacheTest, MultiSourceQueriesBypassTheCache) {
  DynamicGraph dyn{RandomConnectedGraph(200, 600, 13)};
  QueryCache cache(64);
  FlosEngine engine(&dyn);
  engine.set_query_cache(&cache);
  FlosOptions options;
  const std::vector<NodeId> sources = {3, 9};
  const FlosResult a = ValueOrDie(engine.TopKSet(sources, 5, options));
  ASSERT_TRUE(a.stats.exact);
  EXPECT_EQ(cache.size(), 0u) << "set queries are not cacheable";
  const FlosResult b = ValueOrDie(engine.TopKSet(sources, 5, options));
  EXPECT_FALSE(b.stats.cache_hit);
}

// The cache is shared by every server worker: concurrent lookups, inserts
// and clears over a small capacity must never hand out a result filed
// under another key (run under ThreadSanitizer in CI).
TEST(QueryCacheTest, ConcurrentAccessServesOnlyMatchingResults) {
  QueryCache cache(8);
  constexpr int kThreads = 4;
  constexpr int kKeys = 32;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &mismatches, t] {
      FlosResult out;
      for (int i = 0; i < 2000; ++i) {
        // Four hot keys stay resident; every third access is a cold key
        // that churns the LRU tail.
        const int slot = i % 3 == 0 ? (i * 7 + t * 13) % kKeys : (i + t) % 4;
        const NodeId query = static_cast<NodeId>(slot);
        if (cache.Lookup(TestKey(query), &out)) {
          if (out.topk.size() != 1 || out.topk[0].node != query + 100) {
            ++mismatches[static_cast<size_t>(t)];
          }
        } else {
          cache.Insert(TestKey(query), CertifiedResult(query + 100));
        }
        if (i % 500 == 499) cache.Clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(cache.hits(), 0u);
}

#if FLOS_AUDIT_ENABLED

using QueryCacheDeathTest = ::testing::Test;

TEST(QueryCacheDeathTest, ServingAStaleEpochTripsTheAudit) {
  QueryCache cache(4);
  cache.Insert(TestKey(7), CertifiedResult(3));
  // Simulate the impossible: an entry whose stored epoch disagrees with
  // the key it is filed under (only corruption or an invalidation bug can
  // produce this). The audit tier must refuse to serve it.
  ASSERT_TRUE(cache.CorruptEpochForTest(TestKey(7), /*stored_epoch=*/99));
  FlosResult out;
  EXPECT_DEATH(cache.Lookup(TestKey(7), &out),
               "query cache serving a stale graph epoch");
}

#endif  // FLOS_AUDIT_ENABLED

}  // namespace
}  // namespace flos

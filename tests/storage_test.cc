// Tests for the disk-resident graph store: round-trip fidelity, identical
// FLoS answers over memory and disk, cache behaviour under tiny budgets,
// and corruption detection.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "core/flos.h"
#include "storage/disk_builder.h"
#include "storage/disk_format.h"
#include "storage/disk_graph.h"
#include "tests/test_util.h"
#include "util/lru_cache.h"

namespace flos {
namespace {

using testing::PaperExampleGraph;
using testing::RandomConnectedGraph;
using testing::ValueOrDie;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// DiskGraph's block cache: an LruMap of block bytes costed by size.
using BlockCache = LruMap<uint64_t, std::vector<char>>;

void PutBlock(BlockCache* cache, uint64_t id, size_t bytes, char fill) {
  cache->Put(id, std::vector<char>(bytes, fill), bytes);
}

TEST(LruMapTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(10);
  PutBlock(&cache, 1, 4, 'a');
  PutBlock(&cache, 2, 4, 'b');
  ASSERT_NE(cache.Get(1), nullptr);  // touch 1 -> 2 becomes LRU
  PutBlock(&cache, 3, 4, 'c');
  EXPECT_EQ(cache.Get(2), nullptr) << "block 2 should have been evicted";
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_LE(cache.used(), 10u);
}

TEST(LruMapTest, EvictionFollowsTheFullTouchOrder) {
  // Four 4-byte blocks in a 16-byte budget; every Get reshuffles recency.
  BlockCache cache(16);
  for (uint64_t id = 1; id <= 4; ++id) {
    PutBlock(&cache, id, 4, static_cast<char>('a' + id));
  }
  EXPECT_EQ(cache.size(), 4u);
  // After touching 3, 1, 4, 2 the recency order is (oldest) 3 1 4 2.
  ASSERT_NE(cache.Get(3), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  ASSERT_NE(cache.Get(4), nullptr);
  ASSERT_NE(cache.Get(2), nullptr);
  PutBlock(&cache, 5, 4, 'e');  // evicts 3
  EXPECT_EQ(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);  // 1 freshened again
  PutBlock(&cache, 6, 4, 'f');  // evicts 4 (1 was re-touched)
  EXPECT_EQ(cache.Get(4), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(5), nullptr);
  EXPECT_NE(cache.Get(6), nullptr);
  EXPECT_LE(cache.used(), 16u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(LruMapTest, ReinsertingAKeyReplacesItsBytes) {
  BlockCache cache(64);
  PutBlock(&cache, 1, 8, 'a');
  PutBlock(&cache, 1, 16, 'b');
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.used(), 16u)
      << "the old block's bytes must not leak into the budget";
  const std::vector<char>* block = cache.Get(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->size(), 16u);
  EXPECT_EQ((*block)[0], 'b');
}

TEST(LruMapTest, OversizedBlockIsNotCached) {
  BlockCache cache(4);
  PutBlock(&cache, 1, 16, 'x');
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.used(), 0u);
}

TEST(DiskGraphTest, RoundTripsExactly) {
  const Graph g = RandomConnectedGraph(300, 900, 19);
  const std::string path = TempPath("roundtrip.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(g, path));
  auto disk = ValueOrDie(DiskGraph::Open(path, DiskGraphOptions{}));
  EXPECT_EQ(disk->NumNodes(), g.NumNodes());
  EXPECT_EQ(disk->NumEdges(), g.NumEdges());
  EXPECT_DOUBLE_EQ(disk->MaxWeightedDegree(), g.MaxWeightedDegree());
  EXPECT_EQ(disk->DegreeOrder(), g.DegreeOrder());
  std::vector<Neighbor> from_disk;
  std::vector<Neighbor> from_mem;
  InMemoryAccessor mem(&g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    FLOS_ASSERT_OK(disk->CopyNeighbors(u, &from_disk));
    FLOS_ASSERT_OK(mem.CopyNeighbors(u, &from_mem));
    ASSERT_EQ(from_disk, from_mem) << "node " << u;
    EXPECT_DOUBLE_EQ(disk->WeightedDegree(u), g.WeightedDegree(u));
  }
  std::remove(path.c_str());
}

TEST(DiskGraphTest, FlosAnswersMatchMemory) {
  const Graph g = RandomConnectedGraph(800, 2400, 23);
  const std::string path = TempPath("flos_query.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(g, path));
  DiskGraphOptions disk_options;
  disk_options.cache_bytes = 1 << 16;  // small cache: force real I/O
  disk_options.block_bytes = 1 << 10;
  auto disk = ValueOrDie(DiskGraph::Open(path, disk_options));
  for (const Measure m : {Measure::kPhp, Measure::kRwr, Measure::kTht}) {
    FlosOptions options;
    options.measure = m;
    const FlosResult mem_result = ValueOrDie(FlosTopK(g, 5, 10, options));
    const FlosResult disk_result =
        ValueOrDie(FlosTopK(disk.get(), 5, 10, options));
    ASSERT_EQ(mem_result.topk.size(), disk_result.topk.size());
    for (size_t i = 0; i < mem_result.topk.size(); ++i) {
      EXPECT_EQ(mem_result.topk[i].node, disk_result.topk[i].node);
      EXPECT_NEAR(mem_result.topk[i].score, disk_result.topk[i].score, 1e-12);
    }
    EXPECT_EQ(mem_result.stats.visited_nodes, disk_result.stats.visited_nodes);
  }
  // The disk accessor actually hit the cache machinery.
  EXPECT_GT(disk->stats().cache_misses, 0u);
  EXPECT_GT(disk->stats().bytes_read, 0u);
  std::remove(path.c_str());
}

TEST(DiskGraphTest, TinyCacheStillCorrect) {
  const Graph g = RandomConnectedGraph(200, 600, 29);
  const std::string path = TempPath("tiny_cache.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(g, path));
  DiskGraphOptions disk_options;
  disk_options.cache_bytes = 2048;  // two 1 KiB blocks
  disk_options.block_bytes = 1024;
  auto disk = ValueOrDie(DiskGraph::Open(path, disk_options));
  std::vector<Neighbor> nbs;
  InMemoryAccessor mem(&g);
  std::vector<Neighbor> expected;
  // Sweep twice; second sweep gets plenty of evictions.
  for (int round = 0; round < 2; ++round) {
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      FLOS_ASSERT_OK(disk->CopyNeighbors(u, &nbs));
      FLOS_ASSERT_OK(mem.CopyNeighbors(u, &expected));
      ASSERT_EQ(nbs, expected);
    }
  }
  EXPECT_GT(disk->stats().cache_hits, 0u);
  EXPECT_GT(disk->stats().cache_misses, 2u);
  std::remove(path.c_str());
}

TEST(DiskGraphTest, RepeatQueriesReuseCachedBlocksWithoutNewIo) {
  // A cache big enough for the whole adjacency region: the first query
  // pays the I/O, every later query over the same region must be served
  // from cached blocks — zero new bytes read. This is the storage-layer
  // analogue of the engine's certified-result cache: repeat work hits
  // warm state instead of the disk.
  const Graph g = RandomConnectedGraph(400, 1200, 41);
  const std::string path = TempPath("block_reuse.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(g, path));
  DiskGraphOptions disk_options;
  disk_options.cache_bytes = 1 << 22;  // 4 MiB >> the whole file
  disk_options.block_bytes = 1 << 10;
  auto disk = ValueOrDie(DiskGraph::Open(path, disk_options));

  FlosOptions options;
  options.measure = Measure::kPhp;
  const FlosResult first = ValueOrDie(FlosTopK(disk.get(), 7, 10, options));
  ASSERT_TRUE(first.stats.exact);
  const uint64_t bytes_after_first = disk->stats().bytes_read;
  const uint64_t misses_after_first = disk->stats().cache_misses;
  EXPECT_GT(bytes_after_first, 0u);

  const FlosResult second = ValueOrDie(FlosTopK(disk.get(), 7, 10, options));
  ASSERT_TRUE(second.stats.exact);
  EXPECT_EQ(disk->stats().bytes_read, bytes_after_first)
      << "repeat query must not touch the disk";
  EXPECT_EQ(disk->stats().cache_misses, misses_after_first);
  EXPECT_GT(disk->stats().cache_hits, 0u);
  ASSERT_EQ(second.topk.size(), first.topk.size());
  for (size_t i = 0; i < first.topk.size(); ++i) {
    EXPECT_EQ(second.topk[i].node, first.topk[i].node);
    EXPECT_DOUBLE_EQ(second.topk[i].score, first.topk[i].score);
  }
  std::remove(path.c_str());
}

TEST(DiskGraphTest, DetectsCorruption) {
  EXPECT_FALSE(DiskGraph::Open("/no/such/file", DiskGraphOptions{}).ok());

  // Bad magic.
  const std::string bad_magic = TempPath("bad_magic.flos");
  std::FILE* f = std::fopen(bad_magic.c_str(), "wb");
  DiskHeader header{};
  std::memcpy(header.magic, "NOTFLOS!", 8);
  std::fwrite(&header, sizeof(header), 1, f);
  std::fclose(f);
  const auto r1 = DiskGraph::Open(bad_magic, DiskGraphOptions{});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kCorruption);
  std::remove(bad_magic.c_str());

  // Truncated adjacency region.
  const Graph g = PaperExampleGraph();
  const std::string truncated = TempPath("truncated.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(g, truncated));
  // Chop the last 16 bytes off.
  f = std::fopen(truncated.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  FLOS_ASSERT_OK([&]() -> Status {
    if (truncate(truncated.c_str(), size - 16) != 0) {
      return Status::IoError("truncate failed");
    }
    return Status::OK();
  }());
  auto disk = ValueOrDie(DiskGraph::Open(truncated, DiskGraphOptions{}));
  std::vector<Neighbor> nbs;
  Status last = Status::OK();
  for (NodeId u = 0; u < g.NumNodes() && last.ok(); ++u) {
    last = disk->CopyNeighbors(u, &nbs);
  }
  EXPECT_FALSE(last.ok()) << "reading past the truncation must fail";
  std::remove(truncated.c_str());

  // Small blocks over a truncated file: the short final block gets cached,
  // and a later node whose range starts past its end must read as
  // corruption, not past the cached bytes. Every node is read, failures
  // included, so later reads hit that cached short block.
  const Graph er = RandomConnectedGraph(200, 800, 5);
  const std::string short_block = TempPath("short_block.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(er, short_block));
  f = std::fopen(short_block.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long er_size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(short_block.c_str(), er_size - 200), 0);
  DiskGraphOptions small_blocks;
  small_blocks.block_bytes = 1024;
  auto short_disk = ValueOrDie(DiskGraph::Open(short_block, small_blocks));
  int failures = 0;
  for (NodeId u = 0; u < er.NumNodes(); ++u) {
    const Status s = short_disk->CopyNeighbors(u, &nbs);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << "node " << u;
      ++failures;
    }
  }
  EXPECT_GT(failures, 0) << "the chopped nodes must fail to read";
  std::remove(short_block.c_str());

  // An adjacency id past the node range must read as corruption (and fail
  // the search) rather than index past every node-keyed array.
  const std::string bad_id = TempPath("bad_id.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(er, bad_id));
  DiskHeader er_header{};
  f = std::fopen(bad_id.c_str(), "r+b");
  ASSERT_EQ(std::fread(&er_header, sizeof(er_header), 1, f), 1u);
  const uint32_t huge_id = 0x7FFFFFF0u;
  std::fseek(f, static_cast<long>(er_header.adjacency_offset), SEEK_SET);
  std::fwrite(&huge_id, sizeof(huge_id), 1, f);
  std::fclose(f);
  auto bad_id_disk = ValueOrDie(DiskGraph::Open(bad_id, DiskGraphOptions{}));
  EXPECT_EQ(bad_id_disk->CopyNeighbors(0, &nbs).code(),
            StatusCode::kCorruption);
  const auto search = FlosTopK(bad_id_disk.get(), 0, 10, FlosOptions{});
  ASSERT_FALSE(search.ok());
  EXPECT_EQ(search.status().code(), StatusCode::kCorruption);
  std::remove(bad_id.c_str());

  // An offsets table that does not run non-decreasing from 0 to the edge
  // count is rejected at open.
  const std::string bad_offsets = TempPath("bad_offsets.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(er, bad_offsets));
  f = std::fopen(bad_offsets.c_str(), "r+b");
  const uint64_t huge_offset = uint64_t{1} << 40;
  std::fseek(f, static_cast<long>(sizeof(DiskHeader) + sizeof(uint64_t)),
             SEEK_SET);
  std::fwrite(&huge_offset, sizeof(huge_offset), 1, f);
  std::fclose(f);
  const auto r2 = DiskGraph::Open(bad_offsets, DiskGraphOptions{});
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kCorruption);
  std::remove(bad_offsets.c_str());

  // So is a degree order that names a missing node.
  const std::string bad_order = TempPath("bad_order.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(er, bad_order));
  f = std::fopen(bad_order.c_str(), "r+b");
  const uint64_t n = er.NumNodes();
  std::fseek(f,
             static_cast<long>(sizeof(DiskHeader) + (n + 1) * sizeof(uint64_t) +
                               n * sizeof(double)),
             SEEK_SET);
  std::fwrite(&huge_id, sizeof(huge_id), 1, f);
  std::fclose(f);
  const auto r3 = DiskGraph::Open(bad_order, DiskGraphOptions{});
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kCorruption);
  std::remove(bad_order.c_str());
}

}  // namespace
}  // namespace flos

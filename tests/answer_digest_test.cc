// Byte-identity gate for the engine's answers.
//
// Runs a fixed suite of FLoS queries and compares one digest line per
// query with the checked-in table answer_digest_table.txt. A line holds the
// visited count, outer-iteration count (FlosStats::expansions), sweep
// count, accessor neighbor fetches, the certified flag, and a 64-bit
// FNV-1a hash over the returned node ids and the bit patterns of their
// score, lower and upper values. A refactor that claims to leave answers
// unchanged must leave every line unchanged. Accessor degree probes are
// deliberately not part of the digest: they count cost, not answers.
//
// The suite: two generated 16k-node graphs (R-MAT, weighted connected) x 5
// measures x adaptive and batch-1 expansion; multi-source PHP/DHT/THT;
// warm-subgraph resumes at k 10/20/50; a small graph visited whole; a
// 4-shard halo-1 ShardAccessor; one filtered predicate per type.
//
// On a mismatch the test writes the table it computed to
// answer_digest_table.actual in its working directory. After a change that
// is meant to alter answers, review that diff and copy the file over the
// checked-in table.
//
// Multiply-add contraction (-march with FMA, e.g. x86-64-v3) changes the
// bound bits, so such builds compare against the FMA table instead.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/flos.h"
#include "core/flos_engine.h"
#include "core/predicate.h"
#include "core/subgraph_cache.h"
#include "graph/accessor.h"
#include "graph/generators.h"
#include "graph/labels.h"
#include "graph/partition.h"
#include "measures/measure.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace flos {
namespace {

using testing::RandomConnectedGraph;
using testing::ValueOrDie;

#if defined(__FMA__)
constexpr const char* kTablePath = FLOS_DIGEST_TABLE_FMA;
#else
constexpr const char* kTablePath = FLOS_DIGEST_TABLE;
#endif

constexpr Measure kMeasures[] = {Measure::kPhp, Measure::kEi, Measure::kDht,
                                 Measure::kTht, Measure::kRwr};

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string DigestLine(const std::string& name, const FlosResult& r,
                       uint64_t fetches) {
  Fnv h;
  for (const ScoredNode& s : r.topk) {
    h.Add(static_cast<uint64_t>(s.node));
    h.Add(s.score);
    h.Add(s.lower);
    h.Add(s.upper);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h.value()));
  std::ostringstream line;
  line << name << " n=" << r.topk.size() << " v=" << r.stats.visited_nodes
       << " e=" << r.stats.expansions << " s=" << r.stats.inner_iterations
       << " f=" << fetches << " x=" << (r.stats.exact ? 1 : 0) << " " << hex;
  return line.str();
}

/// Collects digest lines in suite order.
class Suite {
 public:
  /// Runs one query on `engine` and records its digest under `name`.
  void Run(const std::string& name, FlosEngine* engine,
           const std::vector<NodeId>& queries, int k,
           const FlosOptions& options) {
    GraphAccessor* accessor = engine->accessor();
    const uint64_t before = accessor->stats().neighbor_fetches;
    const FlosResult r = ValueOrDie(engine->TopKSet(queries, k, options));
    lines_.push_back(
        DigestLine(name, r, accessor->stats().neighbor_fetches - before));
  }

  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

FlosOptions OptionsFor(Measure m, uint32_t batch) {
  FlosOptions o;
  o.measure = m;
  o.expansion_batch = batch;
  // At the default horizon (10) the L-hop ball of these small-diameter
  // graphs is the whole graph; 3 keeps THT local.
  o.tht_length = 3;
  return o;
}

/// `count` distinct query nodes with at least one neighbor, from `seed`.
std::vector<NodeId> PickQueries(const Graph& g, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> out;
  while (out.size() < static_cast<size_t>(count)) {
    const auto v = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    if (g.Degree(v) == 0) continue;
    bool seen = false;
    for (const NodeId u : out) seen = seen || u == v;
    if (!seen) out.push_back(v);
  }
  return out;
}

void RunMeasureGrid(const std::string& tag, const Graph& g, Suite* suite) {
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  const std::vector<NodeId> queries = PickQueries(g, 6, 11);
  for (const Measure m : kMeasures) {
    for (const uint32_t batch : {0u, 1u}) {
      for (const NodeId q : queries) {
        suite->Run(tag + "/" + MeasureName(m) + "/b" + std::to_string(batch) +
                       "/q" + std::to_string(q),
                   &engine, {q}, 10, OptionsFor(m, batch));
      }
    }
  }
}

void RunMultiSource(const Graph& g, Suite* suite) {
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  for (const Measure m : {Measure::kPhp, Measure::kDht, Measure::kTht}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const std::vector<NodeId> set = PickQueries(g, 3, 100 + seed);
      suite->Run("multi/" + MeasureName(m) + "/set" + std::to_string(seed),
                 &engine, set, 10, OptionsFor(m, 0));
    }
  }
}

void RunWarmResumes(const Graph& g, Suite* suite) {
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  SubgraphCache cache(64);
  engine.set_subgraph_cache(&cache);
  for (const Measure m : kMeasures) {
    for (const NodeId q : PickQueries(g, 4, 23)) {
      for (const int k : {10, 20, 50}) {
        suite->Run("warm/" + MeasureName(m) + "/q" + std::to_string(q) +
                       "/k" + std::to_string(k),
                   &engine, {q}, k, OptionsFor(m, 0));
      }
    }
  }
}

void RunWholeGraph(Suite* suite) {
  const Graph g = RandomConnectedGraph(300, 900, 5);
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  for (const Measure m : kMeasures) {
    for (const NodeId q : {NodeId{0}, NodeId{150}}) {
      suite->Run("whole/" + MeasureName(m) + "/q" + std::to_string(q),
                 &engine, {q}, 400, OptionsFor(m, 0));
    }
  }
}

void RunShards(Suite* suite) {
  const Graph g = RandomConnectedGraph(4000, 12000, 6);
  PartitionOptions po;
  po.num_shards = 4;
  po.halo_hops = 1;
  const GraphPartition partition = ValueOrDie(PartitionGraph(g, po));
  for (const ShardPart& shard : partition.shards) {
    ShardAccessor accessor(&shard.graph, &shard.meta);
    FlosEngine engine(&accessor);
    Rng rng(31 + shard.meta.shard_index);
    for (int i = 0; i < 3; ++i) {
      const auto q = static_cast<NodeId>(rng.NextBounded(shard.meta.num_core));
      for (const Measure m : {Measure::kPhp, Measure::kRwr, Measure::kTht}) {
        FlosOptions o = OptionsFor(m, 0);
        o.expandable_limit = shard.meta.num_interior;
        suite->Run("shard" + std::to_string(shard.meta.shard_index) + "/" +
                       MeasureName(m) + "/q" + std::to_string(q),
                   &engine, {q}, 10, o);
      }
    }
  }
}

void RunFiltered(const Graph& g, Suite* suite) {
  LabelGenOptions lo;
  lo.num_nodes = g.NumNodes();
  lo.num_labels = 40;
  lo.labels_per_node = 2;
  lo.seed = 9;
  const LabelStore labels = ValueOrDie(GenerateZipfLabels(lo));
  const std::vector<NodeId> queries = PickQueries(g, 3, 41);
  // Zipf head labels, so every predicate matches a few percent of nodes.
  const LabelPredicate predicates[] = {
      ValueOrDie(LabelPredicate::Make(PredicateType::kEquality, {0, 1})),
      ValueOrDie(LabelPredicate::Make(PredicateType::kContainment, {3})),
      ValueOrDie(LabelPredicate::Make(PredicateType::kOverlap, {7, 12})),
  };
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  for (const LabelPredicate& p : predicates) {
    for (const Measure m : {Measure::kPhp, Measure::kRwr}) {
      for (const NodeId q : queries) {
        FlosOptions o = OptionsFor(m, 0);
        o.labels = &labels;
        o.predicate = p;
        suite->Run("filter/" + std::string(PredicateTypeName(p.type())) +
                       "/" + MeasureName(m) + "/q" + std::to_string(q),
                   &engine, {q}, 10, o);
      }
    }
  }
}

std::vector<std::string> ComputeTable() {
  GeneratorOptions rmat;
  rmat.num_nodes = 16384;
  rmat.num_edges = 65536;
  rmat.seed = 3;
  const Graph a = ValueOrDie(GenerateRmat(rmat));
  const Graph b = RandomConnectedGraph(16000, 64000, 4);
  Suite suite;
  RunMeasureGrid("rmat", a, &suite);
  RunMeasureGrid("conn", b, &suite);
  RunMultiSource(b, &suite);
  RunWarmResumes(b, &suite);
  RunWholeGraph(&suite);
  RunShards(&suite);
  RunFiltered(b, &suite);
  return suite.lines();
}

std::string NameOf(const std::string& line) {
  return line.substr(0, line.find(' '));
}

TEST(AnswerDigestTest, MatchesCheckedInTable) {
  const std::vector<std::string> actual = ComputeTable();
  std::ifstream in(kTablePath);
  ASSERT_TRUE(in) << "cannot open " << kTablePath;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  std::map<std::string, std::string> by_name;
  for (const std::string& line : expected) by_name[NameOf(line)] = line;

  int mismatches = 0;
  for (const std::string& line : actual) {
    const auto it = by_name.find(NameOf(line));
    if (it != by_name.end() && it->second == line) continue;
    if (++mismatches <= 20) {
      ADD_FAILURE() << "digest differs:\n  expected: "
                    << (it == by_name.end() ? "(missing)" : it->second)
                    << "\n  actual:   " << line;
    }
  }
  EXPECT_EQ(actual.size(), expected.size()) << "suite size changed";
  if (mismatches > 0 || actual.size() != expected.size()) {
    std::ofstream out("answer_digest_table.actual");
    for (const std::string& line : actual) out << line << "\n";
    ADD_FAILURE() << mismatches << " of " << actual.size()
                  << " digests differ; computed table written to "
                     "answer_digest_table.actual";
  }
}

}  // namespace
}  // namespace flos

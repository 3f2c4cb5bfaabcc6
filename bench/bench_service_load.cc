// Closed-loop load generator for the k-NN query service.
//
// Starts an in-process ServiceServer over the paper's RAND synthetic
// (Erdős–Rényi, 1M nodes / 5M edges at --scale=1), then drives it from
// --connections client threads, each running a closed loop of anytime
// queries (--deadline-us budget) against degree>=1 nodes. Query nodes are
// drawn uniformly or, with --zipf=s > 0, from a Zipf(s) distribution over
// node ids — the skewed repeat-heavy shape of real query logs, which is
// what the server's certified-result cache is for. Every client-side
// latency is kept as a RAW sample, so the reported percentiles are exact
// order statistics (nearest-rank over the merged samples), not histogram
// bucket upper bounds — at a 5 ms deadline the interesting tail lives
// inside one power-of-two bucket, where an upper bound would flatten it.
// Certified and uncertified answers get separate percentile tracks (a
// certified cache hit is microseconds, a proof is milliseconds; one merged
// track would hide both), and OVERLOADED rejections land in their own
// track so admission-control pushback never pollutes the service-time
// percentiles. The run reports QPS, per-track p50/p95/p99, and the
// server's own cache/certification counters, and writes everything to
// --json (BENCH_service.json).
//
//   ./bench/bench_service_load                # BENCH_service.json config
//   ./bench/bench_service_load --measure=rwr --zipf=0
//   ./bench/bench_service_load --scale=0.05 --deadline-us=0   # certified
//
// Everything — IO thread, 4 workers, client threads — shares whatever
// cores the machine has; this is deliberately the worst honest setup for
// a latency SLO, which is exactly what the admission-control and anytime-
// deadline machinery is for.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "service/client.h"
#include "service/server.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

flos::Result<flos::Measure> ParseMeasure(const std::string& name) {
  if (name == "php") return flos::Measure::kPhp;
  if (name == "ei") return flos::Measure::kEi;
  if (name == "dht") return flos::Measure::kDht;
  if (name == "tht") return flos::Measure::kTht;
  if (name == "rwr") return flos::Measure::kRwr;
  return flos::Status::InvalidArgument(
      "unknown measure '" + name + "' (expected php|ei|dht|tht|rwr)");
}

/// Zipf(s) sampler over [0, n): node id r with probability ∝ 1/(r+1)^s.
/// One shared read-only CDF, inverse-transform per draw; exact, and the
/// O(n) build cost is paid once before the clock starts.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s) : cdf_(n) {
    double total = 0;
    for (uint64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
  }

  flos::NodeId Draw(flos::Rng* rng) const {
    const double u = rng->NextDouble() * cdf_.back();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<flos::NodeId>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct ClientStats {
  uint64_t ok = 0;
  uint64_t certified = 0;
  uint64_t cache_hits = 0;
  uint64_t subgraph_hits = 0;
  uint64_t overloaded = 0;
  uint64_t errors = 0;
  // Raw per-outcome latency samples (exact percentiles are computed over
  // the merged vectors after the run): certified vs anytime-uncertified
  // service times, plus admission-control rejections in their own track.
  // certified_cold is the subset of certified that MISSED the result
  // cache — the queries that actually ran a proof. Under Zipf skew the
  // merged certified track is dominated by microsecond cache hits, which
  // buries the latency the search machinery (bound sweeps, warm
  // subgraphs) is responsible for; the cold track is that latency.
  std::vector<uint64_t> certified_us;
  std::vector<uint64_t> certified_cold_us;
  std::vector<uint64_t> uncertified_us;
  std::vector<uint64_t> overloaded_us;
};

void RunClient(const std::string& host, uint16_t port, uint64_t seed,
               const flos::Graph& graph, const flos::QueryRequest& base,
               const ZipfSampler* zipf, const std::atomic<bool>& stop,
               ClientStats* stats) {
  auto client = flos::ServiceClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "client connect: %s\n",
                 client.status().ToString().c_str());
    ++stats->errors;
    return;
  }
  flos::Rng rng(seed);
  while (!stop.load(std::memory_order_relaxed)) {
    flos::QueryRequest request = base;
    do {
      request.query_node =
          zipf != nullptr
              ? zipf->Draw(&rng)
              : static_cast<flos::NodeId>(rng.NextBounded(graph.NumNodes()));
    } while (graph.Degree(request.query_node) == 0);
    const auto start = std::chrono::steady_clock::now();
    const auto resp = client->Query(request);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    const uint64_t micros = elapsed > 0 ? static_cast<uint64_t>(elapsed) : 0;
    if (!resp.ok()) {
      ++stats->errors;
      return;  // transport broken; stop this connection
    }
    if (resp->status == flos::StatusCode::kOk) {
      ++stats->ok;
      if (resp->certified) {
        ++stats->certified;
        stats->certified_us.push_back(micros);
        if (!resp->cache_hit) stats->certified_cold_us.push_back(micros);
      } else {
        stats->uncertified_us.push_back(micros);
      }
      if (resp->cache_hit) ++stats->cache_hits;
      if (resp->subgraph_hit) ++stats->subgraph_hits;
    } else if (resp->status == flos::StatusCode::kOverloaded) {
      ++stats->overloaded;
      stats->overloaded_us.push_back(micros);
    } else {
      ++stats->errors;
    }
  }
}

/// Exact nearest-rank percentile over raw samples; the vector must be
/// sorted. Empty track -> 0 (nothing to report).
uint64_t Percentile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(rank > 0 ? rank - 1 : 0, sorted.size() - 1)];
}

int Run(int argc, char** argv) {
  flos::FlagParser flags;
  double scale = 1.0;
  int64_t workers = 4;
  int64_t connections = 4;
  int64_t duration_s = 5;
  int64_t deadline_us = 5000;
  int64_t k = 10;
  int64_t max_queue = 256;
  int64_t query_cache = 4096;
  int64_t subgraph_cache = 64;
  double zipf = 0.99;
  std::string measure_name = "php";
  int64_t seed = 42;
  std::string json_path = "BENCH_service.json";
  flags.AddDouble("scale", &scale,
                  "fraction of the 1M-node RAND preset to generate");
  flags.AddInt("workers", &workers, "server query worker threads");
  flags.AddInt("connections", &connections, "closed-loop client threads");
  flags.AddInt("duration-s", &duration_s, "measured run length");
  flags.AddInt("deadline-us", &deadline_us,
               "per-query anytime budget (0 = run every query to proof)");
  flags.AddInt("k", &k, "neighbors per query");
  flags.AddInt("max-queue", &max_queue, "server admission-control cap");
  flags.AddInt("query-cache", &query_cache,
               "server certified-result cache entries (0 = disable)");
  flags.AddInt("subgraph-cache", &subgraph_cache,
               "server warm expanded-subgraph cache entries (0 = disable)");
  flags.AddDouble("zipf", &zipf,
                  "query-node skew exponent (0 = uniform; 0.99 = web-like)");
  flags.AddString("measure", &measure_name, "php|ei|dht|tht|rwr");
  flags.AddInt("seed", &seed, "graph + query sampling seed");
  flags.AddString("json", &json_path, "output file ('' = skip)");
  if (const flos::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }
  const auto measure = ParseMeasure(measure_name);
  if (!measure.ok()) {
    std::fprintf(stderr, "%s\n", measure.status().ToString().c_str());
    return 1;
  }

  flos::bench::SynthSpec spec;
  spec.nodes = static_cast<uint64_t>(1000000.0 * scale);
  spec.edges = spec.nodes * 5;
  spec.rmat = false;
  spec.label = "RAND n=" + std::to_string(spec.nodes);
  const flos::Graph graph = flos::bench::CheckOk(
      flos::bench::BuildSynth(spec, static_cast<uint64_t>(seed)));
  flos::bench::PrintGraphLine(spec.label, graph);

  std::unique_ptr<ZipfSampler> zipf_sampler;
  if (zipf > 0) {
    zipf_sampler = std::make_unique<ZipfSampler>(graph.NumNodes(), zipf);
  }

  flos::ServerOptions options;
  options.num_workers = static_cast<int>(workers);
  options.max_queue_depth = static_cast<size_t>(max_queue);
  options.query_cache_capacity =
      query_cache > 0 ? static_cast<size_t>(query_cache) : 0;
  options.subgraph_cache_capacity =
      subgraph_cache > 0 ? static_cast<size_t>(subgraph_cache) : 0;
  flos::ServiceServer server(&graph, options);
  flos::bench::CheckOk(server.Start());

  flos::QueryRequest base;
  base.measure = *measure;
  base.k = static_cast<uint32_t>(k);
  base.deadline_us = static_cast<uint64_t>(deadline_us);

  std::atomic<bool> stop{false};
  std::vector<ClientStats> stats(static_cast<size_t>(connections));
  std::vector<std::thread> clients;
  clients.reserve(stats.size());
  for (size_t i = 0; i < stats.size(); ++i) {
    clients.emplace_back(RunClient, options.host, server.port(),
                         static_cast<uint64_t>(seed) + 1000 + i,
                         std::cref(graph), std::cref(base),
                         zipf_sampler.get(), std::cref(stop), &stats[i]);
  }
  const auto bench_start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::seconds(duration_s));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  std::vector<uint64_t> certified_us, certified_cold_us, uncertified_us,
      overloaded_us, all_us;
  uint64_t ok = 0, certified = 0, cache_hits = 0, subgraph_hits = 0,
           overloaded = 0, errors = 0;
  for (const ClientStats& s : stats) {
    ok += s.ok;
    certified += s.certified;
    cache_hits += s.cache_hits;
    subgraph_hits += s.subgraph_hits;
    overloaded += s.overloaded;
    errors += s.errors;
    certified_us.insert(certified_us.end(), s.certified_us.begin(),
                        s.certified_us.end());
    certified_cold_us.insert(certified_cold_us.end(),
                             s.certified_cold_us.begin(),
                             s.certified_cold_us.end());
    uncertified_us.insert(uncertified_us.end(), s.uncertified_us.begin(),
                          s.uncertified_us.end());
    overloaded_us.insert(overloaded_us.end(), s.overloaded_us.begin(),
                         s.overloaded_us.end());
  }
  all_us = certified_us;
  all_us.insert(all_us.end(), uncertified_us.begin(), uncertified_us.end());
  std::sort(certified_us.begin(), certified_us.end());
  std::sort(certified_cold_us.begin(), certified_cold_us.end());
  std::sort(uncertified_us.begin(), uncertified_us.end());
  std::sort(overloaded_us.begin(), overloaded_us.end());
  std::sort(all_us.begin(), all_us.end());
  const uint64_t server_cache_hits = server.metrics().cache_hits.value();
  const uint64_t server_subgraph_hits =
      server.metrics().subgraph_hits.value();
  const uint64_t server_subgraph_misses =
      server.metrics().subgraph_misses.value();
  const int64_t peak_queue = server.metrics().queue_depth.max_value();
  server.Shutdown();

  const uint64_t answered = ok + overloaded;
  const double qps =
      elapsed_s > 0 ? static_cast<double>(answered) / elapsed_s : 0;
  const double certified_ratio =
      ok > 0 ? static_cast<double>(certified) / static_cast<double>(ok) : 0;

  std::printf(
      "%lld connections x %.1fs, %s deadline %lld us, k=%lld, %lld workers, "
      "zipf %.2f, cache %lld\n",
      static_cast<long long>(connections), elapsed_s, measure_name.c_str(),
      static_cast<long long>(deadline_us), static_cast<long long>(k),
      static_cast<long long>(workers), zipf,
      static_cast<long long>(query_cache));
  std::printf(
      "qps %.1f  ok %llu  certified %.3f  cache_hits %llu  subgraph_hits "
      "%llu  overloaded %llu  errors %llu\n",
      qps, static_cast<unsigned long long>(ok), certified_ratio,
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(subgraph_hits),
      static_cast<unsigned long long>(overloaded),
      static_cast<unsigned long long>(errors));
  const auto print_track = [](const char* name,
                              const std::vector<uint64_t>& sorted) {
    std::printf("%-12s count %zu  p50 %llu us  p95 %llu us  p99 %llu us\n",
                name, sorted.size(),
                static_cast<unsigned long long>(Percentile(sorted, 0.50)),
                static_cast<unsigned long long>(Percentile(sorted, 0.95)),
                static_cast<unsigned long long>(Percentile(sorted, 0.99)));
  };
  print_track("all_ok", all_us);
  print_track("certified", certified_us);
  print_track("certified_cold", certified_cold_us);
  print_track("uncertified", uncertified_us);
  print_track("overloaded", overloaded_us);
  std::printf("peak queue depth %lld\n", static_cast<long long>(peak_queue));

  if (errors > 0) {
    std::fprintf(stderr, "bench saw %llu errors\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const int host_cpus = flos::ThreadPool::DefaultNumThreads();
    std::string host_note;
    if (host_cpus < workers + connections) {
      host_note =
          "    \"note\": \"host has fewer cores than workers + connections; "
          "tail latencies and certified_ratio price scheduler "
          "oversubscription on this box, not the engine -- multi-core "
          "runs are the comparable baseline\",\n";
    }
    std::fprintf(
        f,
        "{\n"
        "  \"service_load\": {\n"
        "    \"_comment\": \"recorded config changed in PR 6: 5 ms anytime "
        "deadline and --zipf=0.99 key skew (was a 50 us deadline over "
        "uniform keys), so QPS/percentile trajectories before and after "
        "are not comparable; since PR 7 the percentiles are exact order "
        "statistics over raw client-side samples, not histogram bucket "
        "upper bounds; certified_cold_* (PR 8) covers certified queries "
        "that missed the result cache, i.e. searches that ran a proof; "
        "subgraph_hits stays 0 under this workload by construction -- with "
        "a fixed k every repeated seed hits the result cache first, so the "
        "warm-subgraph tier only fires on mixed-k or post-eviction repeats "
        "(tests/service_test.cc exercises that path)\",\n"
        "    \"graph\": \"%s\",\n"
        "    \"measure\": \"%s\",\n"
        "    \"workers\": %lld,\n"
        "    \"connections\": %lld,\n"
        "    \"deadline_us\": %lld,\n"
        "    \"k\": %lld,\n"
        "    \"zipf\": %.2f,\n"
        "    \"query_cache_entries\": %lld,\n"
        "    \"subgraph_cache_entries\": %lld,\n"
        "    \"host_cpus\": %d,\n"
        "%s"
        "    \"duration_s\": %.2f,\n"
        "    \"qps\": %.1f,\n"
        "    \"p50_us\": %llu,\n"
        "    \"p95_us\": %llu,\n"
        "    \"p99_us\": %llu,\n"
        "    \"certified_p50_us\": %llu,\n"
        "    \"certified_p99_us\": %llu,\n"
        "    \"certified_cold_count\": %zu,\n"
        "    \"certified_cold_p50_us\": %llu,\n"
        "    \"certified_cold_p95_us\": %llu,\n"
        "    \"certified_cold_p99_us\": %llu,\n"
        "    \"uncertified_p50_us\": %llu,\n"
        "    \"uncertified_p99_us\": %llu,\n"
        "    \"overloaded_p50_us\": %llu,\n"
        "    \"queries_ok\": %llu,\n"
        "    \"certified_ratio\": %.4f,\n"
        "    \"cache_hits\": %llu,\n"
        "    \"server_cache_hits\": %llu,\n"
        "    \"subgraph_hits\": %llu,\n"
        "    \"subgraph_misses\": %llu,\n"
        "    \"overload_rejects\": %llu,\n"
        "    \"peak_queue_depth\": %lld\n"
        "  }\n"
        "}\n",
        spec.label.c_str(), measure_name.c_str(),
        static_cast<long long>(workers), static_cast<long long>(connections),
        static_cast<long long>(deadline_us), static_cast<long long>(k), zipf,
        static_cast<long long>(query_cache),
        static_cast<long long>(subgraph_cache),
        host_cpus, host_note.c_str(),
        elapsed_s, qps,
        static_cast<unsigned long long>(Percentile(all_us, 0.50)),
        static_cast<unsigned long long>(Percentile(all_us, 0.95)),
        static_cast<unsigned long long>(Percentile(all_us, 0.99)),
        static_cast<unsigned long long>(Percentile(certified_us, 0.50)),
        static_cast<unsigned long long>(Percentile(certified_us, 0.99)),
        certified_cold_us.size(),
        static_cast<unsigned long long>(Percentile(certified_cold_us, 0.50)),
        static_cast<unsigned long long>(Percentile(certified_cold_us, 0.95)),
        static_cast<unsigned long long>(Percentile(certified_cold_us, 0.99)),
        static_cast<unsigned long long>(Percentile(uncertified_us, 0.50)),
        static_cast<unsigned long long>(Percentile(uncertified_us, 0.99)),
        static_cast<unsigned long long>(Percentile(overloaded_us, 0.50)),
        static_cast<unsigned long long>(ok), certified_ratio,
        static_cast<unsigned long long>(cache_hits),
        static_cast<unsigned long long>(server_cache_hits),
        static_cast<unsigned long long>(server_subgraph_hits),
        static_cast<unsigned long long>(server_subgraph_misses),
        static_cast<unsigned long long>(overloaded),
        static_cast<long long>(peak_queue));
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }

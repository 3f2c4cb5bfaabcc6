// Command-line client for the FLoS query service.
//
//   ./examples/flos_client --port=7421 --node=42 --k=10 --measure=rwr
//   ./examples/flos_client --port=7421 --node=42 --deadline-us=200
//   ./examples/flos_client --port=7421 --stats
//   ./examples/flos_client --port=7421 --shutdown
//
// A query answered under a deadline prints its anytime interval answer:
// `certified=no` plus per-node [lower, upper] score bounds that are
// rigorous even though the search was cut short. --connect-retries covers
// the race against a server that is still starting (CI smoke test).

#include <cstdio>
#include <string>

#include "core/predicate.h"
#include "measures/measure.h"
#include "service/client.h"
#include "util/flags.h"

namespace {

int Run(int argc, char** argv) {
  flos::FlagParser flags;
  std::string host = "127.0.0.1";
  int64_t port = 0;
  int64_t node = 0;
  int64_t k = 10;
  std::string measure_name = "php";
  double c = 0.5;
  int64_t tht_length = 10;
  int64_t deadline_us = 0;
  int64_t connect_retries = 0;
  std::string predicate_text = "none";
  bool stats = false;
  bool shutdown = false;
  flags.AddString("host", &host, "server address");
  flags.AddInt("port", &port, "server TCP port");
  flags.AddInt("node", &node, "query node id");
  flags.AddInt("k", &k, "neighbors to return");
  flags.AddString("measure", &measure_name, "php|ei|dht|tht|rwr");
  flags.AddDouble("c", &c, "decay factor / restart probability");
  flags.AddInt("tht-length", &tht_length, "THT truncation L");
  flags.AddInt("deadline-us", &deadline_us,
               "server-side budget in microseconds (0 = run to proof)");
  flags.AddInt("connect-retries", &connect_retries,
               "retry the connect this many times, 100 ms apart");
  flags.AddString("predicate", &predicate_text,
                  "label filter: none | <eq|contain|overlap>:<id>,... "
                  "(numeric label ids; server needs a label store)");
  flags.AddBool("stats", &stats, "fetch the metrics snapshot instead");
  flags.AddBool("shutdown", &shutdown, "ask the server to shut down");
  if (const flos::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "--port is required (1-65535)\n");
    return 1;
  }

  flos::ServiceClient::ConnectRetryPolicy retry;
  retry.max_attempts = static_cast<int>(connect_retries) + 1;
  retry.initial_backoff_ms = 100;
  retry.max_backoff_ms = 100;
  flos::Result<flos::ServiceClient> client = flos::ServiceClient::Connect(
      host, static_cast<uint16_t>(port), retry);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  if (stats) {
    const auto resp = client->Stats();
    if (!resp.ok()) {
      std::fprintf(stderr, "stats: %s\n", resp.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", resp->message.c_str());
    return 0;
  }
  if (shutdown) {
    const auto resp = client->Shutdown();
    if (!resp.ok()) {
      std::fprintf(stderr, "shutdown: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    std::printf("server acknowledged shutdown (%s)\n",
                flos::StatusCodeName(resp->status));
    return resp->status == flos::StatusCode::kOk ? 0 : 1;
  }

  const auto measure = flos::ParseMeasure(measure_name);
  if (!measure.ok()) {
    std::fprintf(stderr, "%s\n", measure.status().ToString().c_str());
    return 1;
  }
  flos::QueryRequest request;
  request.measure = *measure;
  request.query_node = static_cast<flos::NodeId>(node);
  request.k = static_cast<uint32_t>(k);
  request.c = c;
  request.tht_length = static_cast<uint32_t>(tht_length);
  request.deadline_us = static_cast<uint64_t>(deadline_us);
  // Numeric ids only: the client has no label table to resolve names.
  const auto predicate = flos::ParsePredicate(predicate_text, nullptr);
  if (!predicate.ok()) {
    std::fprintf(stderr, "predicate: %s\n",
                 predicate.status().ToString().c_str());
    return 1;
  }
  request.predicate = *predicate;

  const auto resp = client->Query(request);
  if (!resp.ok()) {
    std::fprintf(stderr, "query: %s\n", resp.status().ToString().c_str());
    return 1;
  }
  if (resp->status != flos::StatusCode::kOk) {
    std::fprintf(stderr, "server: %s: %s\n",
                 flos::StatusCodeName(resp->status), resp->message.c_str());
    return 1;
  }
  std::printf(
      "query %lld (%s, k=%lld): certified=%s%s%s%s, visited %llu, %llu us\n",
      static_cast<long long>(node), measure_name.c_str(),
      static_cast<long long>(k), resp->certified ? "yes" : "no",
      resp->cache_hit ? " (cache hit)" : "",
      resp->subgraph_hit ? " (warm subgraph)" : "",
      resp->halo_truncated ? " (halo-truncated)" : "",
      static_cast<unsigned long long>(resp->visited),
      static_cast<unsigned long long>(resp->wall_us));
  for (const flos::ResponseEntry& e : resp->topk) {
    std::printf("  %-10llu %-12.6g in [%.6g, %.6g]\n",
                static_cast<unsigned long long>(e.node), e.score, e.lower,
                e.upper);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }

// The FLoS service benchmark: one run of one named workload.
//
//   flos_perfbench --workload=uniform_proof --seed=1 --seconds=10 --trace=0
//
// A run generates the RAND graph (1M nodes, 5M edges) and a Zipf label
// store from --seed, starts an in-process ServiceServer with 2 query
// workers, drives the workload through ServiceClient connections for
// --seconds and times every call from the client side. It then checks a
// seeded sample of the answers against the exact whole-graph solver and
// prints one result line (last line of stdout):
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace=0 reports the end-to-end metrics. --trace=1 reports the per-layer
// metrics instead: it records a span around every other client call, then
// replays the same requests through its own FlosEngine over a timing
// GraphAccessor, and writes all spans to --trace-out. perfbench/README.md
// defines every metric and says which layer it belongs to.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/flos_engine.h"
#include "core/query_cache.h"
#include "core/subgraph_cache.h"
#include "graph/accessor.h"
#include "graph/generators.h"
#include "graph/labels.h"
#include "loadgen.h"
#include "measures/exact.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "timed_accessor.h"
#include "trace.h"
#include "util/flags.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Inputs every workload shares.
constexpr uint64_t kGraphNodes = 1000000;
constexpr uint64_t kGraphEdges = 5000000;
constexpr uint32_t kNumLabels = 500;
constexpr uint32_t kLabelsPerNode = 3;
constexpr double kLabelZipf = 1.0;
constexpr int kServerWorkers = 2;
constexpr int kSetupRepetitions = 3;
constexpr size_t kCheckSamples = 3;
// Certified scores are interval midpoints separated to the engine's solver
// tolerance (1e-5); the repository's parity tests allow the same slack.
constexpr double kScoreTolerance = 2e-5;
// How far past the window an open loop keeps sending late arrivals.
constexpr int64_t kOpenLoopGraceNs = 1000000000;

int64_t NanosSince(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

double SecondsSince(Clock::time_point origin) {
  return static_cast<double>(NanosSince(origin)) * 1e-9;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "flos_perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T ValueOrDie(flos::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

// ---------------------------------------------------------------- setup

/// The system under test: graph, labels and a started server.
struct System {
  std::unique_ptr<flos::Graph> graph;
  std::unique_ptr<flos::LabelStore> labels;
  std::unique_ptr<flos::ServiceServer> server;
  flos::ServerOptions options;
  double graph_s = 0;
  double labels_s = 0;
  double start_s = 0;
};

std::unique_ptr<System> SetUp(uint64_t seed) {
  auto sys = std::make_unique<System>();
  const auto t0 = Clock::now();
  flos::GeneratorOptions gen;
  gen.num_nodes = kGraphNodes;
  gen.num_edges = kGraphEdges;
  gen.seed = seed;
  sys->graph = std::make_unique<flos::Graph>(
      ValueOrDie(flos::GenerateErdosRenyi(gen), "graph generation"));
  sys->graph_s = SecondsSince(t0);

  const auto t1 = Clock::now();
  flos::LabelGenOptions lab;
  lab.num_nodes = sys->graph->NumNodes();
  lab.num_labels = kNumLabels;
  lab.labels_per_node = kLabelsPerNode;
  lab.zipf_exponent = kLabelZipf;
  lab.seed = seed + 7;
  sys->labels = std::make_unique<flos::LabelStore>(
      ValueOrDie(flos::GenerateZipfLabels(lab), "label generation"));
  sys->labels_s = SecondsSince(t1);

  const auto t2 = Clock::now();
  sys->options.num_workers = kServerWorkers;
  sys->options.labels = sys->labels.get();
  sys->server =
      std::make_unique<flos::ServiceServer>(sys->graph.get(), sys->options);
  const flos::Status started = sys->server->Start();
  if (!started.ok()) Die("server start: " + started.ToString());
  sys->start_s = SecondsSince(t2);
  return sys;
}

/// Set-up phase times of one System.
struct SetupTimes {
  double total_s = 0;
  double graph_s = 0;
  double labels_s = 0;
  double start_s = 0;
};

SetupTimes Times(const System& sys, double total_s) {
  return SetupTimes{total_s, sys.graph_s, sys.labels_s, sys.start_s};
}

/// Times one whole set-up in a child process. Repeating set-up in the
/// measured process would leave allocator state behind that makes its
/// peak RSS vary from run to run. Must be called while this process has
/// no other threads.
SetupTimes TimeSetUpInChild(uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) Die("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const auto t0 = Clock::now();
    std::unique_ptr<System> sys = SetUp(seed);
    const SetupTimes times = Times(*sys, SecondsSince(t0));
    sys->server->Shutdown();
    const bool written =
        write(fds[1], &times, sizeof(times)) == sizeof(times);
    _exit(written ? 0 : 1);
  }
  close(fds[1]);
  SetupTimes times;
  const ssize_t got = read(fds[0], &times, sizeof(times));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(times) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("set-up in the child process failed");
  }
  return times;
}

// ---------------------------------------------------------------- load

/// One attempted request of the measured window.
struct Outcome {
  size_t index = 0;      ///< into WorkloadPlan::measured
  int64_t due_ns = 0;    ///< latency origin: arrival (open) or send (closed)
  int64_t ready_ns = 0;  ///< when the generator could have sent it
  int64_t send_ns = 0;
  int64_t end_ns = 0;
  bool sent = false;  ///< false: an open-loop arrival never sent in time
  bool transport_ok = false;
  bool traced = false;
  flos::QueryResponse response;

  bool ok() const {
    return transport_ok && response.status == flos::StatusCode::kOk;
  }
  double latency_us() const {
    return static_cast<double>(end_ns - due_ns) * 1e-3;
  }
  double round_trip_us() const {
    return static_cast<double>(end_ns - send_ns) * 1e-3;
  }
};

Span ClientSpan(const Outcome& o) {
  Span s;
  s.request_id = o.index;
  s.name = "client.query";
  s.start_ns = o.send_ns;
  s.end_ns = o.end_ns;
  const flos::QueryResponse& r = o.response;
  s.attrs = {{"wall_us", static_cast<double>(r.wall_us)},
             {"visited", static_cast<double>(r.visited)},
             {"certified", r.certified ? 1.0 : 0.0},
             {"cache_hit", r.cache_hit ? 1.0 : 0.0},
             {"subgraph_hit", r.subgraph_hit ? 1.0 : 0.0}};
  return s;
}

/// Sends `list` over `connections` ServiceClients. Open loop when `due` is
/// given (request i is sent at due[i], each connection keeping one request
/// in flight); otherwise a closed loop that stops taking requests once
/// `limit_ns` has passed (0 = send the whole list). `trace` (may be null)
/// receives a client span for every odd-indexed request.
std::vector<Outcome> Drive(uint16_t port, int connections,
                           const std::vector<PlannedRequest>& list,
                           const std::vector<int64_t>* due, int64_t limit_ns,
                           std::vector<std::vector<Span>>* trace) {
  std::vector<flos::ServiceClient> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(ValueOrDie(
        flos::ServiceClient::Connect("127.0.0.1", port), "client connect"));
  }
  std::vector<std::vector<Outcome>> per_connection(clients.size());
  if (trace != nullptr) trace->assign(clients.size(), {});
  std::atomic<size_t> next{0};
  std::vector<uint8_t> sent(list.size(), 0);  // each index has one writer
  const Clock::time_point origin = Clock::now();

  auto run = [&](size_t c) {
    flos::ServiceClient& client = clients[c];
    std::vector<Outcome>& out = per_connection[c];
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= list.size()) break;
      Outcome o;
      o.index = i;
      if (due != nullptr) {
        o.due_ns = (*due)[i];
        o.ready_ns = o.due_ns;
        // A generator that fell this far behind is facing an overloaded
        // server; what it has not sent by now counts as failed.
        if (NanosSince(origin) > limit_ns + kOpenLoopGraceNs) break;
        std::this_thread::sleep_until(origin +
                                      std::chrono::nanoseconds(o.due_ns));
      } else if (limit_ns > 0 && NanosSince(origin) >= limit_ns) {
        break;
      }
      o.send_ns = NanosSince(origin);
      o.sent = true;
      sent[i] = 1;
      if (due == nullptr) {
        o.due_ns = o.send_ns;
        o.ready_ns = out.empty() ? o.send_ns : out.back().end_ns;
      }
      flos::Result<flos::QueryResponse> resp = client.Query(list[i].request);
      o.end_ns = NanosSince(origin);
      o.transport_ok = resp.ok();
      if (resp.ok()) o.response = *std::move(resp);
      o.traced = trace != nullptr && i % 2 == 1;
      if (o.traced && o.transport_ok) {
        (*trace)[c].push_back(ClientSpan(o));
      }
      out.push_back(std::move(o));
      if (!resp.ok()) break;  // the connection is unusable
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) threads.emplace_back(run, c);
  for (std::thread& t : threads) t.join();

  std::vector<Outcome> all;
  for (std::vector<Outcome>& v : per_connection) {
    for (Outcome& o : v) all.push_back(std::move(o));
  }
  if (due != nullptr) {
    for (size_t i = 0; i < list.size(); ++i) {
      if (sent[i] != 0) continue;
      Outcome o;
      o.index = i;
      o.due_ns = (*due)[i];
      o.ready_ns = o.send_ns = o.end_ns = o.due_ns;
      all.push_back(std::move(o));
    }
  }
  std::sort(all.begin(), all.end(), [](const Outcome& a, const Outcome& b) {
    return a.send_ns < b.send_ns;
  });
  return all;
}

// ---------------------------------------------------------------- stats

/// Counters and gauges from the STATS text, keyed "counter.<name>",
/// "gauge.<name>" and "gauge.<name>.max".
std::map<std::string, double> ReadStats(uint16_t port) {
  flos::ServiceClient client =
      ValueOrDie(flos::ServiceClient::Connect("127.0.0.1", port), "stats");
  const flos::QueryResponse resp = ValueOrDie(client.Stats(), "stats");
  std::map<std::string, double> out;
  std::istringstream lines(resp.message);
  std::string kind;
  std::string name;
  while (lines >> kind >> name) {
    double value = 0;
    if ((kind == "counter" || kind == "gauge") && (lines >> value)) {
      out[kind + "." + name] = value;
      if (kind == "gauge") {
        std::string max_word;
        double max_value = 0;
        if (lines >> max_word >> max_value) {
          out[kind + "." + name + ".max"] = max_value;
        }
      }
    }
    lines.ignore(1 << 20, '\n');
  }
  return out;
}

/// q-quantile of the samples a histogram gained between two snapshots,
/// interpolated linearly inside the bucket that holds it.
double HistogramDeltaQuantile(const std::vector<uint64_t>& before,
                              const std::vector<uint64_t>& after, double q) {
  const auto& bounds = flos::LatencyHistogram::BucketBounds();
  std::vector<double> delta(after.size());
  double total = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    delta[i] = static_cast<double>(after[i] - before[i]);
    total += delta[i];
  }
  if (total == 0) return 0;
  const double rank = std::max(1.0, std::ceil(q * total));
  double seen = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (seen + delta[i] >= rank) {
      const double lo = i == 0 ? 0 : static_cast<double>(bounds[i - 1]);
      const double hi = static_cast<double>(
          i < bounds.size() ? bounds[i] : bounds.back());
      return lo + (hi - lo) * (rank - seen) / delta[i];
    }
    seen += delta[i];
  }
  return static_cast<double>(bounds.back());
}

/// Peak RSS of this process, in MiB, since it started or since the last
/// ResetPeakRss(): the kernel's VmHWM. getrusage is not used because its
/// peak cannot be reset.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Die("cannot read /proc/self/status");
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  if (kib < 0) Die("no VmHWM in /proc/self/status");
  return kib / 1024.0;  // KiB -> MiB
}

/// Sets the peak RSS back to the current RSS.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr || std::fputs("5", f) < 0 || std::fclose(f) != 0) {
    Die("cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------- check

/// Options the server hands its engine for `request` (server.cc).
flos::FlosOptions EngineOptions(const flos::QueryRequest& request,
                                const flos::LabelStore* labels) {
  flos::FlosOptions opts;
  opts.measure = request.measure;
  opts.c = request.c;
  opts.tht_length = static_cast<int>(request.tht_length);
  if (request.deadline_us > 0) {
    opts.deadline =
        Clock::now() + std::chrono::microseconds(request.deadline_us);
  }
  if (!request.predicate.empty()) {
    opts.labels = labels;
    opts.predicate = request.predicate;
  }
  return opts;
}

/// Checks one answer against the exact whole-graph solution. Returns an
/// empty string when it holds, else what is wrong.
std::string CheckAnswer(const flos::Graph& graph,
                        const flos::LabelStore& labels,
                        const flos::QueryRequest& request,
                        const flos::QueryResponse& response) {
  flos::MeasureParams params;
  params.c = request.c;
  params.tht_length = static_cast<int>(request.tht_length);
  const std::vector<double> exact = ValueOrDie(
      flos::ExactMeasure(graph, request.query_node, request.measure, params),
      "exact solve");
  const flos::Direction direction = flos::MeasureDirection(request.measure);
  const auto closer = [direction](double a, double b) {
    return flos::IsCloser(direction, a, b);
  };
  std::vector<double> best;
  for (flos::NodeId v = 0; v < static_cast<flos::NodeId>(exact.size()); ++v) {
    if (v == request.query_node) continue;
    if (!request.predicate.Matches(labels.Labels(v))) continue;
    best.push_back(exact[v]);
  }
  const size_t expect =
      std::min<size_t>(request.k, best.size());
  std::partial_sort(best.begin(), best.begin() + static_cast<long>(expect),
                    best.end(), closer);

  std::vector<double> returned;
  for (const flos::ResponseEntry& e : response.topk) {
    if (e.node >= exact.size() || e.node == request.query_node) {
      return "returned node " + std::to_string(e.node) + " is not a candidate";
    }
    const auto node = static_cast<flos::NodeId>(e.node);
    if (!request.predicate.Matches(labels.Labels(node))) {
      return "node " + std::to_string(e.node) + " violates " +
             request.predicate.ToString();
    }
    if (e.lower > exact[node] + kScoreTolerance ||
        e.upper < exact[node] - kScoreTolerance) {
      return "interval of node " + std::to_string(e.node) +
             " does not bracket the exact score";
    }
    returned.push_back(exact[node]);
  }
  if (!response.certified) return "";
  if (returned.size() != expect) return "certified answer has wrong size";
  std::sort(returned.begin(), returned.end(), closer);
  for (size_t i = 0; i < expect; ++i) {
    if (std::fabs(returned[i] - best[i]) > kScoreTolerance) {
      return "certified rank " + std::to_string(i) + " is not the exact top-k";
    }
  }
  return "";
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------- replay

/// Per-layer numbers from replaying the run's requests on one engine.
struct ReplayResult {
  size_t replayed = 0;
  size_t searches = 0;  ///< replayed requests that missed the result cache
  std::vector<double> topk_us;  ///< searches only
  double expand_ns = 0, solve_ns = 0, select_ns = 0, topk_ns = 0;
  double visited = 0, expansions = 0, sweeps = 0, rows = 0, expired = 0;
  uint64_t fetches = 0, degree_probes = 0;
  AccessorCounters accessor;
};

ReplayResult Replay(const System& sys, const WorkloadPlan& plan,
                    const std::vector<Outcome>& outcomes, double budget_s,
                    Clock::time_point origin, Trace* trace) {
  flos::InMemoryAccessor base(sys.graph.get());
  TimedAccessor accessor(&base);
  flos::FlosEngine engine(&accessor);
  flos::QueryCache query_cache(sys.options.query_cache_capacity);
  flos::SubgraphCache subgraph_cache(sys.options.subgraph_cache_capacity);
  if (sys.options.query_cache_capacity > 0) {
    engine.set_query_cache(&query_cache);
  }
  if (sys.options.subgraph_cache_capacity > 0) {
    engine.set_subgraph_cache(&subgraph_cache);
  }
  // The server's caches saw the warm-up too.
  for (const PlannedRequest& p : plan.warmup) {
    const flos::QueryRequest& r = p.request;
    (void)engine.TopK(r.query_node, static_cast<int>(r.k),
                      EngineOptions(r, sys.labels.get()));
  }
  accessor.ResetStats();
  accessor.ResetCounters();

  ReplayResult out;
  const auto start = Clock::now();
  for (const Outcome& o : outcomes) {
    if (SecondsSince(start) >= budget_s) break;
    const flos::QueryRequest& r = plan.measured[o.index].request;
    accessor.SetMatchFilter(sys.labels.get(), &r.predicate);
    const uint64_t fetch_before = accessor.counters().fetch_ns;
    const flos::FlosOptions opts = EngineOptions(r, sys.labels.get());
    const int64_t t0 = NanosSince(origin);
    const flos::Result<flos::FlosResult> result =
        engine.TopK(r.query_node, static_cast<int>(r.k), opts);
    const int64_t t1 = NanosSince(origin);
    accessor.SetMatchFilter(nullptr, nullptr);
    if (!result.ok()) Die("replay: " + result.status().ToString());
    ++out.replayed;
    const flos::FlosStats& st = result->stats;

    Span span;
    span.request_id = o.index;
    span.name = "engine.topk";
    span.start_ns = t0;
    span.end_ns = t1;
    span.attrs = {{"cache_hit", st.cache_hit ? 1.0 : 0.0},
                  {"subgraph_hit", st.subgraph_hit ? 1.0 : 0.0},
                  {"visited", static_cast<double>(st.visited_nodes)},
                  {"expansions", static_cast<double>(st.expansions)},
                  {"sweeps", static_cast<double>(st.inner_iterations)},
                  {"certified", st.exact ? 1.0 : 0.0},
                  {"deadline_expired", st.deadline_expired ? 1.0 : 0.0}};
    const int64_t id = trace->Add(std::move(span));
    if (st.cache_hit) continue;  // stats describe the original run

    const uint64_t fetch_ns = accessor.counters().fetch_ns - fetch_before;
    const int64_t expand = trace->AddAggregate(
        id, "flos_engine.expand", static_cast<int64_t>(st.expand_ns));
    trace->AddAggregate(id, "flos_engine.solve",
                        static_cast<int64_t>(st.solve_ns));
    trace->AddAggregate(id, "flos_engine.select",
                        static_cast<int64_t>(st.select_ns));
    trace->AddAggregate(expand, "accessor.fetch",
                        static_cast<int64_t>(fetch_ns));
    ++out.searches;
    out.topk_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    out.topk_ns += static_cast<double>(t1 - t0);
    out.expand_ns += static_cast<double>(st.expand_ns);
    out.solve_ns += static_cast<double>(st.solve_ns);
    out.select_ns += static_cast<double>(st.select_ns);
    out.visited += static_cast<double>(st.visited_nodes);
    out.expansions += static_cast<double>(st.expansions);
    out.sweeps += static_cast<double>(st.inner_iterations);
    out.rows += static_cast<double>(result->topk.size());
    out.expired += st.deadline_expired ? 1 : 0;
  }
  out.fetches = accessor.stats().neighbor_fetches;
  out.degree_probes = accessor.stats().degree_probes;
  out.accessor = accessor.counters();
  return out;
}

// ---------------------------------------------------------------- run

struct Args {
  std::string workload;
  int64_t seed = 1;
  double seconds = 10;
  int64_t trace = 0;
  std::string trace_out;
};

/// What the measured window left behind.
struct Window {
  std::vector<Outcome> outcomes;
  std::vector<std::vector<Span>> traces;  ///< per connection; traced runs
  std::map<std::string, double> stats_before, stats_after;
  std::vector<uint64_t> queue_before, queue_after;  ///< queue_wait_us buckets
  Clock::time_point origin;
  double seconds = 0;

  /// Change of a STATS counter over the window.
  double Delta(const std::string& key) const {
    const auto a = stats_after.find(key);
    const auto b = stats_before.find(key);
    return (a == stats_after.end() ? 0 : a->second) -
           (b == stats_before.end() ? 0 : b->second);
  }
};

double MedianOf(const std::vector<SetupTimes>& setups,
                double SetupTimes::*field) {
  std::vector<double> values;
  for (const SetupTimes& t : setups) values.push_back(t.*field);
  return Median(values);
}

std::string WorkloadJson(const WorkloadSpec& spec, const WorkloadPlan& plan,
                         const System& sys) {
  std::string preds = "[";
  for (size_t i = 0; i < plan.predicates.size(); ++i) {
    const CalibratedPredicate& p = plan.predicates[i];
    preds += (i > 0 ? ", " : "") + std::string("{\"predicate\": ") +
             JsonString(p.predicate.ToString()) + ", \"class\": " +
             JsonString(kSelectivityNames[p.sel_class]) +
             ", \"matches\": " + std::to_string(p.matches) + "}";
  }
  preds += "]";
  const bool zipf = spec.name == "zipf_open" || spec.name == "zipf_paged";
  const std::string k_mix = zipf ? "\"10:6,20:3,50:1\"" : "\"10\"";
  const std::string nodes =
      zipf                           ? "\"zipf(0.99)\""
      : spec.name == "uniform_proof" ? "\"uniform distinct, degree>=1\""
                                     : "\"uniform, degree>=1\"";
  return "{\"name\": " + JsonString(spec.name) +
         ", \"loop\": " + (spec.open_loop ? "\"open\"" : "\"closed\"") +
         ", \"connections\": " + std::to_string(spec.connections) +
         ", \"rate_per_s\": " + JsonNumber(spec.rate_per_s) +
         ", \"measure\": \"php\", \"c\": 0.5, \"k\": " + k_mix +
         ", \"query_nodes\": " + nodes +
         ", \"deadline_us\": " + std::to_string(spec.deadline_us) +
         ", \"slo_limit_us\": " + std::to_string(spec.slo_limit_us) +
         ", \"warmup_requests\": " + std::to_string(spec.warmup_requests) +
         ", \"graph\": {\"generator\": \"erdos_renyi\", \"nodes\": " +
         std::to_string(kGraphNodes) + ", \"edges\": " +
         std::to_string(kGraphEdges) + "}, \"labels\": {\"universe\": " +
         std::to_string(kNumLabels) + ", \"per_node\": " +
         std::to_string(kLabelsPerNode) + ", \"zipf\": " +
         JsonNumber(kLabelZipf) + "}, \"server\": {\"workers\": " +
         std::to_string(sys.options.num_workers) + ", \"query_cache\": " +
         std::to_string(sys.options.query_cache_capacity) +
         ", \"subgraph_cache\": " +
         std::to_string(sys.options.subgraph_cache_capacity) +
         ", \"max_queue_depth\": " +
         std::to_string(sys.options.max_queue_depth) +
         "}, \"predicates\": " + preds + "}";
}

/// The per-layer metrics of a traced run: client spans and STATS deltas of
/// the window, codec timings over its frames, and the engine replay.
/// Writes every span to `trace_out` (if set) and the self-time summary to
/// `*self_json`.
std::vector<Metric> PerLayerMetrics(const System& sys,
                                    const WorkloadPlan& plan,
                                    const Window& w,
                                    const std::vector<SetupTimes>& setups,
                                    const std::string& trace_out,
                                    std::string* self_json) {
  Trace trace;
  for (const std::vector<Span>& spans : w.traces) {
    for (const Span& s : spans) {
      const int64_t id = trace.Add(s);
      const double wall_us = s.attrs[0].second;  // ClientSpan puts it first
      trace.AddAggregate(id, "server.topk",
                         static_cast<int64_t>(wall_us * 1e3));
    }
  }

  std::vector<double> traced_lat, untraced_lat, hit_lat, warm_wall,
      cold_wall, overhead, send_lag;
  double req_bytes = 0, resp_bytes = 0, codec_ns = 0, codec_n = 0;
  double sel_ok[kNumSelectivityClasses] = {};
  double sel_cert[kNumSelectivityClasses] = {};
  for (const Outcome& o : w.outcomes) {
    if (o.sent) {
      send_lag.push_back(static_cast<double>(o.send_ns - o.ready_ns) * 1e-3);
    }
    if (!o.ok()) continue;
    (o.traced ? traced_lat : untraced_lat).push_back(o.latency_us());
    if (!o.traced) continue;
    const flos::QueryResponse& r = o.response;
    const auto wall_us = static_cast<double>(r.wall_us);
    if (r.cache_hit) {
      hit_lat.push_back(o.latency_us());
    } else {
      (r.subgraph_hit ? warm_wall : cold_wall).push_back(wall_us);
    }
    overhead.push_back(o.round_trip_us() - wall_us);
    const PlannedRequest& p = plan.measured[o.index];
    if (p.sel_class >= 0) {
      sel_ok[p.sel_class] += 1;
      sel_cert[p.sel_class] += r.certified ? 1 : 0;
    }
    // Codec cost over the recorded frames: encode and decode the request
    // and the response once each.
    std::string req_frame, resp_frame;
    const auto c0 = Clock::now();
    flos::EncodeQueryRequest(p.request, &req_frame);
    const auto decoded_req =
        flos::DecodeQueryRequest(req_frame.substr(flos::kFrameHeaderBytes));
    flos::EncodeResponse(r, &resp_frame);
    const auto decoded_resp =
        flos::DecodeResponse(resp_frame.substr(flos::kFrameHeaderBytes));
    codec_ns += static_cast<double>(NanosSince(c0));
    if (!decoded_req.ok() || !decoded_resp.ok()) {
      Die("a recorded frame does not decode");
    }
    req_bytes += static_cast<double>(req_frame.size());
    resp_bytes += static_cast<double>(resp_frame.size());
    codec_n += 1;
  }
  const double untraced_p50 = NearestRank(untraced_lat, 0.5);

  const ReplayResult rp =
      Replay(sys, plan, w.outcomes, w.seconds, w.origin, &trace);
  std::printf("# replay: %zu requests, %zu searches\n", rp.replayed,
              rp.searches);
  const double searches = static_cast<double>(rp.searches);
  const auto fetches = static_cast<double>(rp.fetches);
  const auto fetch_ns = static_cast<double>(rp.accessor.fetch_ns);
  const double q_hits = w.Delta("counter.cache_hits");
  const double q_miss = w.Delta("counter.cache_misses");
  const double s_hits = w.Delta("counter.subgraph_hits");
  const double s_miss = w.Delta("counter.subgraph_misses");
  const auto peak_depth = w.stats_after.find("gauge.queue_depth.max");

  *self_json = "{";
  for (const auto& [name, t] : trace.SelfTimes()) {
    const auto count = static_cast<double>(t.count);
    std::printf("# span %-20s count %8llu mean %10.1f us self %10.1f us\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                Ratio(t.total_ns * 1e-3, count),
                Ratio(t.self_ns * 1e-3, count));
    *self_json += (self_json->size() > 1 ? ", " : "") + JsonString(name) +
                  ": {\"count\": " + std::to_string(t.count) +
                  ", \"total_ns\": " + JsonNumber(t.total_ns) +
                  ", \"self_ns\": " + JsonNumber(t.self_ns) + "}";
  }
  *self_json += "}";
  if (!trace_out.empty() && !trace.WriteJsonLines(trace_out)) {
    Die("cannot write " + trace_out);
  }

  return {
      {"flos_engine.topk_p50_us", NearestRank(rp.topk_us, 0.50), "us"},
      {"flos_engine.topk_p99_us", NearestRank(rp.topk_us, 0.99), "us"},
      {"flos_engine.expand_us_per_query", Ratio(rp.expand_ns * 1e-3, searches), "us"},
      {"flos_engine.solve_us_per_query", Ratio(rp.solve_ns * 1e-3, searches), "us"},
      {"flos_engine.select_us_per_query", Ratio(rp.select_ns * 1e-3, searches), "us"},
      {"flos_engine.visited_per_query", Ratio(rp.visited, searches), "count"},
      {"flos_engine.outer_iterations_per_query", Ratio(rp.expansions, searches), "count"},
      {"flos_engine.sweeps_per_query", Ratio(rp.sweeps, searches), "count"},
      {"flos_engine.ns_per_visited", Ratio(rp.topk_ns, rp.visited), "ns"},
      {"flos_engine.us_per_sweep", Ratio(rp.solve_ns * 1e-3, rp.sweeps), "us"},
      {"flos_engine.useful_ratio", Ratio(rp.rows, rp.visited), "ratio"},
      {"flos_engine.deadline_expired_ratio", Ratio(rp.expired, searches), "ratio"},
      {"accessor.fetches_per_query", Ratio(fetches, searches), "count"},
      {"accessor.degree_probes_per_query",
       Ratio(static_cast<double>(rp.degree_probes), searches), "count"},
      {"accessor.fetch_ns_per_call", Ratio(fetch_ns, fetches), "ns"},
      {"accessor.fetch_share_of_expand", Ratio(fetch_ns, rp.expand_ns), "ratio"},
      {"query_cache.hit_ratio", Ratio(q_hits, q_hits + q_miss), "ratio"},
      {"query_cache.hit_latency_p50_us", NearestRank(hit_lat, 0.50), "us"},
      {"subgraph_cache.hit_ratio", Ratio(s_hits, s_hits + s_miss), "ratio"},
      {"subgraph_cache.warm_wall_p50_us", NearestRank(warm_wall, 0.50), "us"},
      {"subgraph_cache.cold_wall_p50_us", NearestRank(cold_wall, 0.50), "us"},
      {"frame_service.overhead_p50_us", NearestRank(overhead, 0.50), "us"},
      {"frame_service.overhead_p99_us", NearestRank(overhead, 0.99), "us"},
      {"frame_service.queue_wait_p99_us",
       HistogramDeltaQuantile(w.queue_before, w.queue_after, 0.99), "us"},
      {"frame_service.peak_queue_depth",
       peak_depth == w.stats_after.end() ? 0 : peak_depth->second, "count"},
      {"frame_service.overload_rejects",
       w.Delta("counter.requests_rejected_overload"), "count"},
      {"protocol.request_bytes", Ratio(req_bytes, codec_n), "bytes"},
      {"protocol.response_bytes", Ratio(resp_bytes, codec_n), "bytes"},
      {"protocol.codec_ns", Ratio(codec_ns, codec_n), "ns"},
      {"predicate.visited_match_ratio",
       Ratio(static_cast<double>(rp.accessor.matching_fetches), fetches), "ratio"},
      {"predicate.certified_ratio.sel_0.1pct", Ratio(sel_cert[0], sel_ok[0]), "ratio"},
      {"predicate.certified_ratio.sel_1pct", Ratio(sel_cert[1], sel_ok[1]), "ratio"},
      {"predicate.certified_ratio.sel_10pct", Ratio(sel_cert[2], sel_ok[2]), "ratio"},
      {"setup.graph_s", MedianOf(setups, &SetupTimes::graph_s), "s"},
      {"setup.labels_s", MedianOf(setups, &SetupTimes::labels_s), "s"},
      {"setup.server_start_s", MedianOf(setups, &SetupTimes::start_s), "s"},
      {"loadgen.samples", static_cast<double>(w.outcomes.size()), "count"},
      {"loadgen.send_lag_p99_us", NearestRank(send_lag, 0.99), "us"},
      {"loadgen.trace_overhead_ratio",
       Ratio(NearestRank(traced_lat, 0.5) - untraced_p50, untraced_p50), "ratio"},
  };
}

/// Checks a seeded, stratified sample of the window's ok answers against
/// the exact solver, and that answers without a deadline are certified.
/// Strata are (selectivity class, certified, served from: search, result
/// cache or warm subgraph); one answer is drawn from each, then the sample
/// is topped up at random to kCheckSamples. So every kind of answer a run
/// gives is checked, however rare. Returns whether all hold; `*checked`
/// gets the sample size.
bool CheckAnswers(const System& sys, const WorkloadSpec& spec,
                  const WorkloadPlan& plan,
                  const std::vector<Outcome>& outcomes, uint64_t seed,
                  size_t* checked) {
  std::map<std::tuple<int, bool, int>, std::vector<size_t>> strata;
  std::vector<size_t> ok_index;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.ok()) continue;
    ok_index.push_back(i);
    const int served = o.response.cache_hit      ? 1
                       : o.response.subgraph_hit ? 2
                                                 : 0;
    strata[{plan.measured[o.index].sel_class, o.response.certified, served}]
        .push_back(i);
  }
  bool correct = !ok_index.empty();
  for (const Outcome& o : outcomes) {
    if (o.ok() && spec.deadline_us == 0 && !o.response.certified) {
      std::printf("# check: request %zu has no deadline but is uncertified\n",
                  o.index);
      correct = false;
      break;
    }
  }
  flos::Rng rng(seed ^ 0xC0FFEEu);
  std::vector<size_t> sample;
  for (const auto& [key, members] : strata) {
    sample.push_back(members[rng.NextBounded(members.size())]);
  }
  // Enough distinct draws that kCheckSamples are reached even when every
  // stratum pick is drawn again.
  const size_t target = std::min(ok_index.size(), kCheckSamples);
  const size_t draws = std::min(ok_index.size(), target + sample.size());
  for (const uint64_t pick : rng.SampleDistinct(ok_index.size(), draws)) {
    if (sample.size() >= target) break;
    if (std::find(sample.begin(), sample.end(), ok_index[pick]) ==
        sample.end()) {
      sample.push_back(ok_index[pick]);
    }
  }
  *checked = sample.size();
  for (const size_t i : sample) {
    const Outcome& o = outcomes[i];
    const flos::QueryRequest& r = plan.measured[o.index].request;
    const std::string problem =
        CheckAnswer(*sys.graph, *sys.labels, r, o.response);
    std::printf("# check: node %llu k %u %s %s%s: %s\n",
                static_cast<unsigned long long>(r.query_node), r.k,
                r.predicate.ToString().c_str(),
                o.response.certified ? "certified" : "uncertified",
                o.response.cache_hit      ? " cache hit"
                : o.response.subgraph_hit ? " warm subgraph"
                                          : "",
                problem.empty() ? "ok" : problem.c_str());
    if (!problem.empty()) correct = false;
  }
  return correct;
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    Die("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0) || (args.trace != 0 && args.trace != 1)) {
    Die("--seconds must be > 0 and --trace 0 or 1");
  }
  const auto seed = static_cast<uint64_t>(args.seed);
  const bool traced = args.trace == 1;

  // Set-up is timed kSetupRepetitions times and the median reported: all
  // but the last in child processes, the last here, where it is kept.
  std::vector<SetupTimes> setups;
  for (int rep = 1; rep < kSetupRepetitions; ++rep) {
    setups.push_back(TimeSetUpInChild(seed));
  }
  const auto t0 = Clock::now();
  const std::unique_ptr<System> sys = SetUp(seed);
  setups.push_back(Times(*sys, SecondsSince(t0)));
  const double setup_s = MedianOf(setups, &SetupTimes::total_s);
  // Peak RSS through this process's set-up, for the record.
  const double setup_peak_rss_mb = PeakRssMb();
  const uint16_t port = sys->server->port();
  std::printf("# setup: %.3f s median of %d (graph %.3f, labels %.3f, "
              "start %.4f)\n",
              setup_s, kSetupRepetitions,
              MedianOf(setups, &SetupTimes::graph_s),
              MedianOf(setups, &SetupTimes::labels_s),
              MedianOf(setups, &SetupTimes::start_s));

  const WorkloadPlan plan =
      PlanWorkload(spec, *sys->graph, *sys->labels, seed, args.seconds);
  if (spec.name == "filtered_mix") {
    for (int cls = 0; cls < kNumSelectivityClasses; ++cls) {
      if (std::none_of(plan.predicates.begin(), plan.predicates.end(),
                       [cls](const CalibratedPredicate& p) {
                         return p.sel_class == cls;
                       })) {
        Die(std::string("no predicate reaches ") + kSelectivityNames[cls]);
      }
    }
    for (const CalibratedPredicate& p : plan.predicates) {
      std::printf("# predicate %-10s %-24s matches %llu\n",
                  kSelectivityNames[p.sel_class],
                  p.predicate.ToString().c_str(),
                  static_cast<unsigned long long>(p.matches));
    }
  }

  Drive(port, spec.connections, plan.warmup, nullptr, 0, nullptr);
  // Peak RSS while serving: reset here, read after the window.
  ResetPeakRss();

  Window w;
  w.stats_before = ReadStats(port);
  w.queue_before = sys->server->metrics().queue_wait_us.Snapshot();
  w.origin = Clock::now();
  w.outcomes = Drive(port, spec.connections, plan.measured,
                     spec.open_loop ? &plan.due_ns : nullptr,
                     static_cast<int64_t>(args.seconds * 1e9),
                     traced ? &w.traces : nullptr);
  w.seconds = SecondsSince(w.origin);
  w.queue_after = sys->server->metrics().queue_wait_us.Snapshot();
  w.stats_after = ReadStats(port);
  const double peak_rss_mb = PeakRssMb();

  // ---- end-to-end metrics (client side, every attempted request)
  size_t ok = 0, certified = 0, failed = 0, within_slo = 0;
  std::vector<double> latency, cold_latency;
  // Ok answers and p50 latency per second of the window, for the record.
  std::vector<double> ok_per_s(static_cast<size_t>(w.seconds) + 1, 0);
  std::vector<std::vector<double>> lat_per_s(ok_per_s.size());
  for (const Outcome& o : w.outcomes) {
    if (!o.ok()) {
      ++failed;
      continue;
    }
    ++ok;
    if (o.response.certified) ++certified;
    latency.push_back(o.latency_us());
    if (!o.response.cache_hit) cold_latency.push_back(o.latency_us());
    if (o.latency_us() <= static_cast<double>(spec.slo_limit_us)) {
      ++within_slo;
    }
    const size_t sec = std::min(ok_per_s.size() - 1,
                                static_cast<size_t>(o.end_ns / 1000000000));
    ok_per_s[sec] += 1;
    lat_per_s[sec].push_back(o.latency_us());
  }
  const double qps = Ratio(static_cast<double>(ok), w.seconds);
  const auto attempted = static_cast<double>(w.outcomes.size());
  const std::vector<Metric> end_to_end = {
      {"setup_s", setup_s, "s"},
      {"qps", qps, "1/s"},
      {"latency_p50_us", NearestRank(latency, 0.50), "us"},
      {"latency_p99_us", NearestRank(latency, 0.99), "us"},
      {"cold_latency_p50_us", NearestRank(cold_latency, 0.50), "us"},
      {"certified_ratio",
       Ratio(static_cast<double>(certified), static_cast<double>(ok)), "ratio"},
      {"slo_ratio", Ratio(static_cast<double>(within_slo), attempted), "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  const double failed_ratio = Ratio(static_cast<double>(failed), attempted);
  std::string quantiles_json = "{";
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    quantiles_json += (quantiles_json.size() > 1 ? ", " : "") +
                      JsonString(JsonNumber(q)) + ": " +
                      JsonNumber(NearestRank(latency, q));
  }
  quantiles_json += "}";
  std::string series_json = "[";
  for (size_t i = 0; i < ok_per_s.size(); ++i) {
    series_json += (i > 0 ? ", [" : "[") + JsonNumber(ok_per_s[i]) + ", " +
                   JsonNumber(NearestRank(lat_per_s[i], 0.5)) + "]";
  }
  series_json += "]";

  std::vector<Metric> per_layer;
  std::string self_json = "{}";
  if (traced) {
    per_layer =
        PerLayerMetrics(*sys, plan, w, setups, args.trace_out, &self_json);
  }

  // Outside the window and outside the set-up time.
  size_t checked = 0;
  const bool correct =
      CheckAnswers(*sys, spec, plan, w.outcomes, seed, &checked);
  sys->server->Shutdown();

  for (const Metric& m : end_to_end) {
    std::printf("# %-24s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("# %-24s %14.6g ratio\n", "failed_ratio", failed_ratio);
  for (const Metric& m : per_layer) {
    std::printf("# %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf(
      "# record {\"workload\": %s, \"seed\": %lld, \"seconds\": %s, "
      "\"trace\": %lld, \"window_s\": %s, \"attempted\": %zu, \"ok\": %zu, "
      "\"failed\": %zu, \"failed_ratio\": %s, \"latency_samples\": %zu, "
      "\"cold_latency_samples\": %zu, \"latency_quantiles_us\": %s, "
      "\"per_second_ok_p50_us\": %s, \"setup_peak_rss_mb\": %s, "
      "\"checked_answers\": %zu, \"correct\": %s, \"end_to_end\": %s, "
      "\"per_layer\": %s, \"self_time\": %s}\n",
      WorkloadJson(spec, plan, *sys).c_str(),
      static_cast<long long>(args.seed), JsonNumber(args.seconds).c_str(),
      static_cast<long long>(args.trace), JsonNumber(w.seconds).c_str(),
      w.outcomes.size(), ok, failed, JsonNumber(failed_ratio).c_str(),
      latency.size(), cold_latency.size(), quantiles_json.c_str(),
      series_json.c_str(), JsonNumber(setup_peak_rss_mb).c_str(), checked,
      correct ? "true" : "false", MetricsJson(end_to_end).c_str(),
      MetricsJson(per_layer).c_str(), self_json.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", w.outcomes.size(), failed,
      MetricsJson(traced ? per_layer : end_to_end).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  flos::FlagParser flags;
  flags.AddString("workload", &args.workload,
                  "uniform_proof | zipf_paged | zipf_open | filtered_mix");
  flags.AddInt("seed", &args.seed, "seed of every generated input");
  flags.AddDouble("seconds", &args.seconds, "length of the measured window");
  flags.AddInt("trace", &args.trace, "1 = per-layer (traced) run");
  flags.AddString("trace-out", &args.trace_out,
                  "where a traced run writes its spans ('' = nowhere)");
  if (const flos::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }
  return perfbench::Run(args);
}

// Seeded inputs and client-side statistics of the FLoS service benchmark.
//
// Everything a workload sends is a pure function of the run's seed and the
// generated graph/label store, so a second run with the same seed sends the
// same requests in the same order (tests/perfbench_test.cc checks that).

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/predicate.h"
#include "graph/graph.h"
#include "graph/labels.h"
#include "service/protocol.h"
#include "util/rng.h"

namespace perfbench {

/// Nearest-rank percentile of raw samples: the smallest sample such that at
/// least q of all samples are <= it. q in (0, 1]; 0 for no samples.
double NearestRank(std::vector<double> samples, double q);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// Arrival offsets, in nanoseconds from the window start, of a Poisson
/// process at `rate_per_s` over `seconds`.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds);

/// `count` distinct nodes drawn uniformly among those with degree >= 1.
std::vector<flos::NodeId> DistinctQueryNodes(const flos::Graph& graph,
                                             size_t count, uint64_t seed);

/// Zipf(s) over node ids: id r is drawn with probability proportional to
/// 1/(r+1)^s; draws of degree-0 nodes are redrawn.
class ZipfNodeSampler {
 public:
  ZipfNodeSampler(const flos::Graph& graph, double s);
  flos::NodeId Draw(flos::Rng* rng) const;

 private:
  const flos::Graph* graph_;
  std::vector<double> cdf_;
};

/// k for one zipf_open or zipf_paged request: 10, 20 or 50 with weights
/// 6:3:1.
uint32_t DrawMixedK(flos::Rng* rng);

/// One (query node, k) pair of a request.
struct NodeK {
  flos::NodeId node = 0;
  uint32_t k = 0;
};

/// `count` requests of paging sessions over Zipf nodes (zipf_paged). A
/// session asks for k=10 on a drawn node; half of the sessions go on to
/// k=20 and a third of those to k=50. Each page is placed at least `gap`
/// positions after the one before it, so it usually arrives once that one
/// has been answered. The k shares are 6:3:1 in expectation, as in
/// DrawMixedK.
std::vector<NodeK> PagedZipfRequests(const ZipfNodeSampler& zipf,
                                     size_t count, size_t gap,
                                     flos::Rng* rng);

/// Selectivity classes of filtered_mix, by target fraction of nodes that
/// match.
inline constexpr double kSelectivityTargets[] = {0.001, 0.01, 0.1};
inline constexpr const char* kSelectivityNames[] = {"sel_0.1pct", "sel_1pct",
                                                    "sel_10pct"};
inline constexpr int kNumSelectivityClasses = 3;

/// A predicate picked for one selectivity class by counting its matches.
struct CalibratedPredicate {
  flos::LabelPredicate predicate;
  int sel_class = 0;      ///< index into kSelectivityTargets
  uint64_t matches = 0;   ///< exact matching-node count over the store
};

/// For every (selectivity class, predicate type) picks the candidate whose
/// exact match count is closest (in log space) to the class target.
/// Candidates: equality over the label sets that occur, containment over
/// label pairs, overlap over single labels and label pairs. A type whose
/// best candidate is more than 3x off the target is left out of that
/// class. Deterministic for a given store.
std::vector<CalibratedPredicate> CalibratePredicates(
    const flos::LabelStore& labels);

/// One request of a workload, as the load generator sends it.
struct PlannedRequest {
  flos::QueryRequest request;
  int sel_class = -1;  ///< filtered_mix only; -1 for unfiltered requests
};

/// Fixed definition of one workload (recorded in every result).
struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  int connections = 2;
  double rate_per_s = 0;       ///< open loop only
  uint64_t deadline_us = 0;    ///< 0 = every query runs to proof
  uint64_t slo_limit_us = 0;   ///< latency limit of slo_ratio
  size_t warmup_requests = 0;  ///< untimed, before the window
};

/// The named workloads: uniform_proof, zipf_paged, zipf_open,
/// filtered_mix. Returns false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);
std::vector<std::string> WorkloadNames();

/// The planned inputs of one run: warm-up requests (sent untimed) and the
/// measured list. Open-loop runs also get the arrival schedule; the
/// measured list then has one request per arrival.
struct WorkloadPlan {
  std::vector<PlannedRequest> warmup;
  std::vector<PlannedRequest> measured;
  std::vector<int64_t> due_ns;  ///< open loop only
  std::vector<CalibratedPredicate> predicates;  ///< filtered_mix only
};

/// Builds the plan of `spec` for a run of `seconds` from `seed`. Closed
/// loops get a measured list far longer than any run consumes.
WorkloadPlan PlanWorkload(const WorkloadSpec& spec, const flos::Graph& graph,
                          const flos::LabelStore& labels, uint64_t seed,
                          double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_

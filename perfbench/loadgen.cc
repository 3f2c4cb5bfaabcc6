#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace perfbench {

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds) {
  flos::Rng rng(seed);
  std::vector<int64_t> due;
  double t = 0;
  while (true) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

std::vector<flos::NodeId> DistinctQueryNodes(const flos::Graph& graph,
                                             size_t count, uint64_t seed) {
  flos::Rng rng(seed);
  std::vector<flos::NodeId> out;
  std::unordered_set<flos::NodeId> seen;
  out.reserve(count);
  seen.reserve(count * 2);
  while (out.size() < count) {
    const auto v = static_cast<flos::NodeId>(rng.NextBounded(graph.NumNodes()));
    if (graph.Degree(v) == 0) continue;
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

ZipfNodeSampler::ZipfNodeSampler(const flos::Graph& graph, double s)
    : graph_(&graph), cdf_(graph.NumNodes()) {
  double sum = 0;
  for (size_t r = 0; r < cdf_.size(); ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

flos::NodeId ZipfNodeSampler::Draw(flos::Rng* rng) const {
  while (true) {
    const double u = rng->NextDouble();
    const size_t r = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const auto v = static_cast<flos::NodeId>(std::min(r, cdf_.size() - 1));
    if (graph_->Degree(v) > 0) return v;
  }
}

uint32_t DrawMixedK(flos::Rng* rng) {
  const uint64_t d = rng->NextBounded(10);
  return d < 6 ? 10 : d < 9 ? 20 : 50;
}

std::vector<NodeK> PagedZipfRequests(const ZipfNodeSampler& zipf,
                                     size_t count, size_t gap,
                                     flos::Rng* rng) {
  std::vector<NodeK> out;
  out.reserve(count);
  std::map<size_t, NodeK> pages;  // list position -> a later page
  const auto place = [&pages](size_t at, NodeK page) {
    while (pages.count(at) > 0) ++at;
    pages[at] = page;
    return at;
  };
  while (out.size() < count) {
    const auto due = pages.find(out.size());
    if (due != pages.end()) {
      out.push_back(due->second);
      pages.erase(due);
      continue;
    }
    const flos::NodeId node = zipf.Draw(rng);
    out.push_back({node, 10});
    if (rng->NextBounded(2) != 0) continue;
    const size_t second = place(out.size() - 1 + gap, {node, 20});
    if (rng->NextBounded(3) == 0) place(second + gap, {node, 50});
  }
  return out;
}

namespace {

using Candidate = std::pair<flos::LabelPredicate, uint64_t>;

flos::LabelPredicate MakePredicate(flos::PredicateType type,
                                   std::vector<flos::LabelId> labels) {
  // Every caller passes at least one distinct label, which Make accepts.
  return std::move(flos::LabelPredicate::Make(type, std::move(labels)))
      .value();
}

/// Closest candidate to `target` in log space, or nullptr when even the
/// best is more than 3x off.
const Candidate* PickClosest(const std::vector<Candidate>& candidates,
                             double target, uint64_t num_nodes) {
  const Candidate* best = nullptr;
  double best_gap = 0;
  for (const Candidate& c : candidates) {
    const double fraction =
        static_cast<double>(c.second) / static_cast<double>(num_nodes);
    const double gap = std::fabs(std::log((fraction + 1e-12) / target));
    if (best == nullptr || gap < best_gap) {
      best = &c;
      best_gap = gap;
    }
  }
  return best != nullptr && best_gap <= std::log(3.0) ? best : nullptr;
}

}  // namespace

std::vector<CalibratedPredicate> CalibratePredicates(
    const flos::LabelStore& labels) {
  const uint64_t n = labels.NumNodes();
  const uint32_t num_labels = labels.NumLabels();

  // One pass gives every exact count the candidates need: label-pair
  // co-occurrence (containment of a pair; overlap by inclusion-exclusion)
  // and the frequency of every label set that occurs (equality).
  std::unordered_map<uint64_t, uint64_t> pair_counts;
  std::unordered_map<uint64_t, uint64_t> set_counts;
  std::unordered_map<uint64_t, std::vector<flos::LabelId>> set_labels;
  for (uint64_t v = 0; v < n; ++v) {
    const auto set = labels.Labels(static_cast<flos::NodeId>(v));
    for (size_t i = 0; i < set.size(); ++i) {
      for (size_t j = i + 1; j < set.size(); ++j) {
        ++pair_counts[uint64_t{set[i]} * num_labels + set[j]];
      }
    }
    if (set.empty()) continue;
    uint64_t key = 1469598103934665603ULL;  // FNV-1a over the sorted ids
    for (const flos::LabelId l : set) key = (key ^ l) * 1099511628211ULL;
    if (++set_counts[key] == 1) {
      set_labels[key] = std::vector<flos::LabelId>(set.begin(), set.end());
    }
  }

  std::vector<Candidate> eq;
  std::vector<Candidate> contain;
  std::vector<Candidate> overlap;
  for (const auto& [key, count] : set_counts) {
    eq.emplace_back(MakePredicate(flos::PredicateType::kEquality,
                                  set_labels[key]),
                    count);
  }
  for (flos::LabelId a = 0; a < num_labels; ++a) {
    overlap.emplace_back(MakePredicate(flos::PredicateType::kOverlap, {a}),
                         labels.LabelNodeCount(a));
    for (flos::LabelId b = a + 1; b < num_labels; ++b) {
      const auto it = pair_counts.find(uint64_t{a} * num_labels + b);
      const uint64_t both = it == pair_counts.end() ? 0 : it->second;
      if (both > 0) {
        contain.emplace_back(
            MakePredicate(flos::PredicateType::kContainment, {a, b}), both);
      }
      overlap.emplace_back(
          MakePredicate(flos::PredicateType::kOverlap, {a, b}),
          labels.LabelNodeCount(a) + labels.LabelNodeCount(b) - both);
    }
  }
  // Hash-map iteration order is not part of the contract; sort so ties in
  // PickClosest resolve the same way everywhere.
  for (std::vector<Candidate>* pool : {&eq, &contain, &overlap}) {
    std::sort(pool->begin(), pool->end(),
              [](const Candidate& x, const Candidate& y) {
                const auto lx = x.first.labels();
                const auto ly = y.first.labels();
                return std::lexicographical_compare(lx.begin(), lx.end(),
                                                    ly.begin(), ly.end());
              });
  }

  std::vector<CalibratedPredicate> out;
  for (int cls = 0; cls < kNumSelectivityClasses; ++cls) {
    for (const std::vector<Candidate>* pool : {&eq, &contain, &overlap}) {
      const Candidate* best =
          PickClosest(*pool, kSelectivityTargets[cls], n);
      if (best == nullptr) continue;
      out.push_back(CalibratedPredicate{best->first, cls, best->second});
    }
  }
  return out;
}

// Positions between the pages of a zipf_paged session: twice its four
// connections, so the page before has usually been answered, and far
// fewer than the 64 subgraphs the server keeps warm by default.
constexpr size_t kPageGap = 8;

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "uniform_proof") {
    s.connections = 2;
    s.deadline_us = 0;
    s.slo_limit_us = 100000;
    s.warmup_requests = 200;
  } else if (name == "zipf_open") {
    s.open_loop = true;
    s.connections = 4;
    s.rate_per_s = 400;
    s.deadline_us = 5000;
    s.slo_limit_us = 10000;
    s.warmup_requests = 4000;
  } else if (name == "zipf_paged") {
    s.connections = 4;
    s.deadline_us = 50000;
    s.slo_limit_us = 100000;
    s.warmup_requests = 1000;
  } else if (name == "filtered_mix") {
    s.connections = 2;
    s.deadline_us = 50000;
    s.slo_limit_us = 100000;
    s.warmup_requests = 20;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

std::vector<std::string> WorkloadNames() {
  return {"uniform_proof", "zipf_paged", "zipf_open", "filtered_mix"};
}

WorkloadPlan PlanWorkload(const WorkloadSpec& spec, const flos::Graph& graph,
                          const flos::LabelStore& labels, uint64_t seed,
                          double seconds) {
  WorkloadPlan plan;
  flos::QueryRequest base;
  base.measure = flos::Measure::kPhp;
  base.k = 10;
  base.deadline_us = spec.deadline_us;
  // Far more than a closed loop can finish in the run.
  const size_t closed_count =
      static_cast<size_t>(10000.0 * std::max(1.0, seconds));

  if (spec.name == "uniform_proof") {
    // Half the node count keeps rejection sampling of distinct nodes fast.
    const size_t count = std::min<size_t>(
        spec.warmup_requests + closed_count, graph.NumNodes() / 2);
    const std::vector<flos::NodeId> nodes =
        DistinctQueryNodes(graph, count, seed ^ 0x51u);
    for (size_t i = 0; i < nodes.size(); ++i) {
      PlannedRequest r{base, -1};
      r.request.query_node = nodes[i];
      (i < spec.warmup_requests ? plan.warmup : plan.measured).push_back(r);
    }
  } else if (spec.name == "zipf_open" || spec.name == "zipf_paged") {
    const ZipfNodeSampler zipf(graph, 0.99);
    if (spec.open_loop) {
      plan.due_ns = PoissonSchedule(seed ^ 0x52u, spec.rate_per_s, seconds);
    }
    flos::Rng rng(seed ^ 0x53u);
    const size_t total = spec.warmup_requests +
                         (spec.open_loop ? plan.due_ns.size() : closed_count);
    // zipf_open draws k per request; zipf_paged pages through sessions.
    const std::vector<NodeK> paged =
        spec.open_loop ? std::vector<NodeK>{}
                       : PagedZipfRequests(zipf, total, kPageGap, &rng);
    for (size_t i = 0; i < total; ++i) {
      PlannedRequest r{base, -1};
      if (spec.open_loop) {
        r.request.query_node = zipf.Draw(&rng);
        r.request.k = DrawMixedK(&rng);
      } else {
        r.request.query_node = paged[i].node;
        r.request.k = paged[i].k;
      }
      (i < spec.warmup_requests ? plan.warmup : plan.measured).push_back(r);
    }
  } else if (spec.name == "filtered_mix") {
    plan.predicates = CalibratePredicates(labels);
    std::vector<std::vector<size_t>> by_class(kNumSelectivityClasses);
    for (size_t i = 0; i < plan.predicates.size(); ++i) {
      by_class[static_cast<size_t>(plan.predicates[i].sel_class)].push_back(i);
    }
    flos::Rng rng(seed ^ 0x54u);
    const size_t total = spec.warmup_requests + closed_count;
    for (size_t i = 0; i < total; ++i) {
      PlannedRequest r{base, -1};
      do {
        r.request.query_node =
            static_cast<flos::NodeId>(rng.NextBounded(graph.NumNodes()));
      } while (graph.Degree(r.request.query_node) == 0);
      // Classes take turns, and so do the types within a class: exact
      // equal shares, so the mix itself does not vary between runs.
      const size_t cls = i % kNumSelectivityClasses;
      const std::vector<size_t>& members = by_class[cls];
      if (!members.empty()) {
        const CalibratedPredicate& p =
            plan.predicates[members[(i / kNumSelectivityClasses) %
                                    members.size()]];
        r.request.predicate = p.predicate;
        r.sel_class = p.sel_class;
      }
      (i < spec.warmup_requests ? plan.warmup : plan.measured).push_back(r);
    }
  }
  return plan;
}

}  // namespace perfbench

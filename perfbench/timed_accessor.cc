#include "timed_accessor.h"

#include <chrono>

namespace perfbench {

double TimedAccessor::WeightedDegree(flos::NodeId u) {
  ++stats_.degree_probes;
  return inner_->WeightedDegree(u);
}

flos::Status TimedAccessor::CopyNeighbors(flos::NodeId u,
                                          std::vector<flos::Neighbor>* out) {
  const auto start = std::chrono::steady_clock::now();
  flos::Status status = inner_->CopyNeighbors(u, out);
  const auto end = std::chrono::steady_clock::now();
  ++stats_.neighbor_fetches;
  counters_.fetch_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  if (predicate_ != nullptr && predicate_->Matches(labels_->Labels(u))) {
    ++counters_.matching_fetches;
  }
  return status;
}

}  // namespace perfbench

// Forwarding GraphAccessor that measures the accessor layer for the traced
// engine replay.
//
// Every call goes to the wrapped accessor, including the hints that steer
// the engine's path (DenseIndexHint, CompleteAdjacency, DegreeOrder,
// Epoch), so an engine over the forwarder does exactly the work it does
// over the wrapped accessor. Both kinds of call are counted in the
// GraphAccessor stats(). CopyNeighbors calls are also timed; WeightedDegree
// calls are not, because two clock reads would cost more than the array
// lookup they would time. When a match filter is set, fetched nodes are
// also tested against it, outside the timed part, which gives the
// predicate layer's visited-match ratio.

#ifndef PERFBENCH_TIMED_ACCESSOR_H_
#define PERFBENCH_TIMED_ACCESSOR_H_

#include <cstdint>
#include <vector>

#include "core/predicate.h"
#include "graph/accessor.h"
#include "graph/labels.h"

namespace perfbench {

/// What TimedAccessor measures beyond the call counts of stats(), since
/// construction or ResetCounters.
struct AccessorCounters {
  uint64_t fetch_ns = 0;  ///< wall time inside CopyNeighbors
  /// Fetches, made while a match filter was set, of nodes that match it.
  uint64_t matching_fetches = 0;
};

class TimedAccessor final : public flos::GraphAccessor {
 public:
  /// `inner` must outlive the forwarder.
  explicit TimedAccessor(flos::GraphAccessor* inner) : inner_(inner) {}

  uint64_t NumNodes() const override { return inner_->NumNodes(); }
  uint64_t NumEdges() const override { return inner_->NumEdges(); }
  double WeightedDegree(flos::NodeId u) override;
  flos::Status CopyNeighbors(flos::NodeId u,
                             std::vector<flos::Neighbor>* out) override;
  const std::vector<flos::NodeId>& DegreeOrder() const override {
    return inner_->DegreeOrder();
  }
  double MaxWeightedDegree() const override {
    return inner_->MaxWeightedDegree();
  }
  uint64_t Epoch() const override { return inner_->Epoch(); }
  double ExternalDegreeBound() const override {
    return inner_->ExternalDegreeBound();
  }
  bool CompleteAdjacency(flos::NodeId u) const override {
    return inner_->CompleteAdjacency(u);
  }
  bool DenseIndexHint() const override { return inner_->DenseIndexHint(); }

  /// Tests each fetched node against `predicate` over `labels` from now on;
  /// pass nullptr to stop. Both must outlive their use.
  void SetMatchFilter(const flos::LabelStore* labels,
                      const flos::LabelPredicate* predicate) {
    labels_ = labels;
    predicate_ = predicate;
  }

  const AccessorCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = AccessorCounters{}; }

 private:
  flos::GraphAccessor* inner_;
  const flos::LabelStore* labels_ = nullptr;
  const flos::LabelPredicate* predicate_ = nullptr;
  AccessorCounters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_ACCESSOR_H_

// In-memory spans of the traced benchmark run.
//
// A span names the layer boundary it was recorded at, the request it
// belongs to and its parent span. Spans are kept in memory while the run
// measures and written out as JSON lines when it ends.
//
// Some spans are aggregates: the engine reports its phase times as sums
// over a query (FlosStats::expand_ns, ...), and the replay sums the
// accessor's fetch time per query. Such a span has the right duration but
// no real position inside its parent; it is placed at the parent's start
// and marked "aggregate". Children of one parent never overlap in time (the
// engine's phases are disjoint, and each parent has one service child), so
// a span's self time is its duration minus the sum of its children's.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t request_id = 0;
  int64_t parent = -1;  ///< index of the parent span in the trace; -1 = root
  std::string name;
  int64_t start_ns = 0;  ///< from the trace origin
  int64_t end_ns = 0;
  bool aggregate = false;
  std::vector<std::pair<std::string, double>> attrs;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Duration and self time of every span with one name.
struct SelfTime {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

class Trace {
 public:
  /// Appends `span` and returns its index (the id children refer to).
  int64_t Add(Span span);

  /// Adds an aggregate child of `parent` lasting `duration_ns`.
  int64_t AddAggregate(int64_t parent, const std::string& name,
                       int64_t duration_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, summed duration and summed self time.
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Writes one JSON object per span. Returns false if the file cannot be
  /// written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int64_t Trace::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Trace::AddAggregate(int64_t parent, const std::string& name,
                            int64_t duration_ns) {
  const Span& p = spans_[static_cast<size_t>(parent)];
  Span span;
  span.request_id = p.request_id;
  span.parent = parent;
  span.name = name;
  span.start_ns = p.start_ns;
  span.end_ns = p.start_ns + std::max<int64_t>(0, duration_ns);
  span.aggregate = true;
  return Add(std::move(span));
}

std::map<std::string, SelfTime> Trace::SelfTimes() const {
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.duration_ns());
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double total = static_cast<double>(spans_[i].duration_ns());
    SelfTime& t = out[spans_[i].name];
    ++t.count;
    t.total_ns += total;
    t.self_ns += std::max(0.0, total - child_ns[i]);
  }
  return out;
}

bool Trace::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"request\": %llu, \"parent\": %lld, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"aggregate\": %s, \"attrs\": {",
                 i, static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(s.parent), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.aggregate ? "true" : "false");
    for (size_t a = 0; a < s.attrs.size(); ++a) {
      std::fprintf(f, "%s\"%s\": %.17g", a > 0 ? ", " : "",
                   s.attrs[a].first.c_str(), s.attrs[a].second);
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

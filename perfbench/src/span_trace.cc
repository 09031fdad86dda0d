#include "span_trace.h"

#include <cstdio>
#include <fstream>

#include "stats.h"

namespace perfbench {

std::uint32_t SpanTrace::begin(const char* name) {
  const double now = nowSeconds();
  const std::uint32_t parent = open_.empty() ? kNone : open_.back();
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    open_.push_back(kNone);
    return kNone;
  }
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{name, now, now, parent});
  open_.push_back(id);
  return id;
}

void SpanTrace::end(std::uint32_t id) {
  if (!open_.empty()) open_.pop_back();
  if (id != kNone) spans_[id].end_s = nowSeconds();
}

void SpanTrace::complete(const char* name, double start_s, double end_s) {
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  const std::uint32_t parent = open_.empty() ? kNone : open_.back();
  spans_.push_back(Span{name, start_s, end_s, parent});
}

bool SpanTrace::writeChromeJson(const std::string& path,
                                const std::string& host_json) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const double origin = spans_.empty() ? 0 : spans_.front().start_s;
  out << "{\"traceEvents\": [\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Complete ("X") events in microseconds; the span id and its parent
    // travel in args so self time can be recomputed from the file.
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %lld}}",
                  i == 0 ? "" : ",\n", s.name, (s.start_s - origin) * 1e6,
                  (s.end_s - s.start_s) * 1e6, i,
                  s.parent == kNone ? -1LL : static_cast<long long>(s.parent));
    out << line;
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"host\": " << host_json
      << ", \"dropped_spans\": " << dropped_ << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

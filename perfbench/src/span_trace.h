// In-memory span recorder, written out as Chrome trace-event JSON (opens
// in Perfetto or chrome://tracing). Spans are recorded only by the
// benchmark's own code, around its calls into the program's layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanTrace {
 public:
  /// Keeps at most `max_spans` spans; later ones are counted, not kept.
  explicit SpanTrace(std::size_t max_spans) : max_spans_(max_spans) {}

  /// Opens a span now; returns its id (the parent of spans opened before
  /// it closes). Names must be string literals (stored by pointer).
  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);
  /// Records a span whose interval was timed by the caller (seconds on
  /// the nowSeconds() clock).
  void complete(const char* name, double start_s, double end_s);

  std::size_t dropped() const { return dropped_; }
  std::size_t size() const { return spans_.size(); }

  /// Writes {"traceEvents": [...], "otherData": {"host": <host_json>,
  /// "dropped_spans": n}}; `host_json` is a JSON object. Returns false if
  /// the file cannot be written.
  bool writeChromeJson(const std::string& path, const std::string& host_json) const;

 private:
  static constexpr std::uint32_t kNone = ~0u;
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    std::uint32_t parent;
  };

  std::size_t max_spans_;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< Stack of open span ids.
};

/// Opens a span for the enclosing scope when `trace` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, const char* name)
      : trace_(trace), id_(trace != nullptr ? trace->begin(name) : 0) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  std::uint32_t id_;
};

}  // namespace perfbench

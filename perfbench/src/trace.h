// Spans recorded by the benchmark around its calls into tdsim.
//
// A Span is a scoped timer: name, layer (category), start, duration, the
// span that enclosed it on the same thread, and a few integer arguments
// (usually KernelStats counts read right after the call). Spans are kept
// in memory, one buffer per thread, and written out once, at exit, as
// Chrome trace-event JSON (chrome://tracing, https://ui.perfetto.dev).
// Per-name totals cover every span; the file keeps the first 16384 spans
// of each thread and counts the rest as droppedSpans.
//
// Recording is off unless Tracer::enable(true) was called; a disabled Span
// costs one relaxed atomic load. The end-to-end numbers come from runs with
// recording off.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no enclosing span
  std::vector<std::pair<const char*, std::uint64_t>> args;
};

/// Busy time of all spans sharing one name.
struct SpanTotal {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  double mean_ns() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / count;
  }
};

class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();

  /// Per-name totals over every span recorded.
  static std::map<std::string, SpanTotal> totals();
  /// Writes the kept spans of every thread as Chrome trace-event JSON;
  /// false on I/O failure.
  static bool write_chrome(const std::string& path);
};

class Span {
 public:
  Span(const char* name, const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a count to the span (ignored while recording is off).
  void arg(const char* key, std::uint64_t value);

 private:
  bool on_;
  SpanRecord record_;
};

}  // namespace perfbench

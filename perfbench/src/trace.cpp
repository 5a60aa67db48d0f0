#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept per thread for the trace file; later ones still count in
/// the totals. Bounds the memory and the file of span-heavy workloads
/// (scale_mesh spawns 30k processes per repetition).
constexpr std::size_t kMaxRecordsPerThread = 1 << 14;

/// One thread's spans. Owned by the registry, so the records outlive the
/// thread (the Scheduler's workers live until process exit anyway).
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::uint64_t open = 0;  ///< id of the innermost open span
  std::vector<SpanRecord> records;
  std::uint64_t dropped = 0;
  std::map<const char*, SpanTotal> totals;  ///< by name literal
};

struct Registry {
  std::mutex mutex;  // guards buffers (the list, not each buffer's records)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

// Not inlined: a span in a fiber body must not reuse a thread-local address
// cached before the fiber last suspended (fibers migrate between workers).
[[gnu::noinline]] ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = r.buffers.back().get();
    buffer->tid = static_cast<std::uint32_t>(r.buffers.size());
  }
  return *buffer;
}

void write_escaped(std::FILE* out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') {
      std::fputc('\\', out);
    }
    std::fputc(*s, out);
  }
}

}  // namespace

void Tracer::enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::map<std::string, SpanTotal> Tracer::totals() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::map<std::string, SpanTotal> totals;
  for (const auto& buffer : r.buffers) {
    for (const auto& [name, t] : buffer->totals) {
      totals[name].count += t.count;
      totals[name].total_ns += t.total_ns;
    }
  }
  return totals;
}

bool Tracer::write_chrome(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::vector<SpanRecord> spans;
  std::uint64_t dropped = 0;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& buffer : r.buffers) {
      spans.insert(spans.end(), buffer->records.begin(),
                   buffer->records.end());
      dropped += buffer->dropped;
    }
  }
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& span : spans) {
    origin = std::min(origin, span.start_ns);
  }
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ns\",\"droppedSpans\":%llu,"
               "\"traceEvents\":[\n",
               static_cast<unsigned long long>(dropped));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out, "{\"name\":\"");
    write_escaped(out, s.name);
    std::fprintf(out, "\",\"cat\":\"");
    write_escaped(out, s.layer);
    std::fprintf(out,
                 "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu",
                 s.tid, (s.start_ns - origin) / 1e3, s.dur_ns / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    for (const auto& [key, value] : s.args) {
      std::fprintf(out, ",\"");
      write_escaped(out, key);
      std::fprintf(out, "\":%llu", static_cast<unsigned long long>(value));
    }
    std::fprintf(out, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

Span::Span(const char* name, const char* layer) : on_(Tracer::enabled()) {
  if (!on_) {
    return;
  }
  ThreadBuffer& buffer = local_buffer();
  record_.name = name;
  record_.layer = layer;
  record_.tid = buffer.tid;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = buffer.open;
  buffer.open = record_.id;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!on_) {
    return;
  }
  record_.dur_ns = now_ns() - record_.start_ns;
  ThreadBuffer& buffer = local_buffer();
  if (buffer.open == record_.id) {
    buffer.open = record_.parent;
  }
  SpanTotal& total = buffer.totals[record_.name];
  total.count++;
  total.total_ns += record_.dur_ns;
  if (buffer.records.size() < kMaxRecordsPerThread) {
    buffer.records.push_back(std::move(record_));
  } else {
    buffer.dropped++;
  }
}

void Span::arg(const char* key, std::uint64_t value) {
  if (on_) {
    record_.args.emplace_back(key, value);
  }
}

}  // namespace perfbench

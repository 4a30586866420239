// In-memory span recorder for the benchmark's traced runs.
//
// Spans are fixed-size records (name, start, end, parent, request id, three
// numeric attributes) in a buffer sized up front; recording is one atomic
// slot reservation plus plain stores, safe from several threads at once.
// Nothing is written until the run ends (write_json). Spans are recorded by
// the benchmark around its calls into the library's public functions; the
// library itself is not instrumented.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace xctbench {

struct Span {
  char name[40] = {};
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< 0 while the span is open.
  std::int32_t parent = -1;  ///< Index of the enclosing span; -1 for roots.
  std::int64_t request = -1;  ///< Request id shared by one request's spans.
  double attrs[3] = {0.0, 0.0, 0.0};

  [[nodiscard]] std::int64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
};

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : spans_(capacity) {}

  /// Records a finished span; returns its index, or -1 when the buffer is
  /// full (the span is counted in dropped()).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, std::int64_t request = -1,
          std::initializer_list<double> attrs = {}) {
    const int idx = reserve();
    if (idx < 0) return idx;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    std::strncpy(s.name, name, sizeof(s.name) - 1);
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.parent = parent;
    s.request = request;
    int a = 0;
    for (double v : attrs)
      if (a < 3) s.attrs[a++] = v;
    return idx;
  }

  /// Opens a span starting now; close() sets its end.
  int open(const char* name, int parent = -1) {
    return add(name, now_ns(), 0, parent);
  }
  void close(int idx) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  }

  /// RAII span: open on construction, close on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, int parent = -1)
        : t_(t), idx_(t.open(name, parent)) {}
    ~Scope() { t_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int index() const noexcept { return idx_; }

   private:
    Tracer& t_;
    int idx_;
  };

  /// Recorded spans (call after every recording thread has finished).
  [[nodiscard]] std::vector<Span> spans() const {
    const auto n = std::min<std::size_t>(
        static_cast<std::size_t>(next_.load()), spans_.size());
    return {spans_.begin(), spans_.begin() + static_cast<std::ptrdiff_t>(n)};
  }
  [[nodiscard]] std::int64_t dropped() const noexcept {
    return std::max<std::int64_t>(
        0, next_.load() - static_cast<std::int64_t>(spans_.size()));
  }

 private:
  int reserve() {
    const std::int64_t idx = next_.fetch_add(1);
    return idx < static_cast<std::int64_t>(spans_.size())
               ? static_cast<int>(idx)
               : -1;
  }

  std::vector<Span> spans_;
  std::atomic<std::int64_t> next_{0};
};

/// Self time of span `idx`: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
inline std::int64_t self_ns(const std::vector<Span>& spans, int idx) {
  const Span& p = spans[static_cast<std::size_t>(idx)];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& s : spans)
    if (s.parent == idx) {
      const std::int64_t a = std::max(s.start_ns, p.start_ns);
      const std::int64_t b = std::min(s.end_ns, p.end_ns);
      if (b > a) kids.emplace_back(a, b);
    }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t cur_a = 0, cur_b = 0;
  bool have = false;
  for (const auto& [a, b] : kids) {
    if (have && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (have) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    have = true;
  }
  if (have) covered += cur_b - cur_a;
  return p.duration_ns() - covered;
}

/// Durations in milliseconds of every span named `name`.
inline std::vector<double> durations_ms(const std::vector<Span>& spans,
                                        const char* name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (std::strcmp(s.name, name) == 0)
      out.push_back(static_cast<double>(s.duration_ns()) * 1e-6);
  return out;
}

/// Index of the first span named `name`, -1 if none.
inline int find(const std::vector<Span>& spans, const char* name) {
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (std::strcmp(spans[i].name, name) == 0) return static_cast<int>(i);
  return -1;
}

/// Writes the spans as a JSON array; times are relative to the first span.
inline bool write_json(const std::vector<Span>& spans,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  if (!spans.empty()) {
    t0 = spans.front().start_ns;
    for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"self_ns\": %lld, \"parent\": %d, "
                 "\"request\": %lld, \"attrs\": [%.9g, %.9g, %.9g]}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(self_ns(spans, static_cast<int>(i))),
                 s.parent, static_cast<long long>(s.request), s.attrs[0],
                 s.attrs[1], s.attrs[2], i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace xctbench

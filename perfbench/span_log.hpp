// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark records one span around each call it makes into a layer of
// the library (io, graph, baselines, core, runtime, service), plus spans it
// derives from what a call returns (a served query's queue-wait/solve split).
// Spans carry a request id and a parent, stay in memory while the run
// measures, and are written out once at the end as Chrome trace_event JSON
// (loadable in Perfetto). A disabled log records nothing, so untraced loops
// pay one branch per call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = a root span
  std::uint64_t request = 0;  ///< spans of one request share this id
  std::string layer;          ///< "bench", "io", "graph", "core", ...
  std::string name;
  double start_s = 0.0;  ///< seconds since the log's origin
  double end_s = 0.0;
};

class span_log {
 public:
  using clock = std::chrono::steady_clock;

  explicit span_log(bool enabled) : enabled_(enabled), origin_(clock::now()) {}

  span_log(const span_log&) = delete;
  span_log& operator=(const span_log&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] double now() const noexcept {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  /// Opens a span starting now; returns its id (0 when disabled). Thread-safe.
  std::uint64_t open(std::string layer, std::string name, std::uint64_t request,
                     std::uint64_t parent) {
    if (!enabled_) return 0;
    const double start = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({spans_.size() + 1, parent, request, std::move(layer),
                      std::move(name), start, start});
    return spans_.size();
  }

  void close(std::uint64_t id) {
    if (id == 0) return;
    const double end = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_s = end;
  }

  /// Records an already-finished interval (e.g. derived from a returned
  /// struct); returns its id (0 when disabled).
  std::uint64_t record(std::string layer, std::string name,
                       std::uint64_t request, std::uint64_t parent,
                       double start_s, double end_s) {
    if (!enabled_) return 0;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({spans_.size() + 1, parent, request, std::move(layer),
                      std::move(name), start_s, std::max(start_s, end_s)});
    return spans_.size();
  }

  /// Opens on construction, closes on destruction.
  class scope {
   public:
    scope(span_log& log, std::string layer, std::string name,
          std::uint64_t request, std::uint64_t parent)
        : log_(log),
          id_(log.open(std::move(layer), std::move(name), request, parent)) {}
    ~scope() { log_.close(id_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

   private:
    span_log& log_;
    std::uint64_t id_;
  };

  /// Self time summed per layer: each span's duration minus the part of its
  /// interval that its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const span& s : spans_) {
      if (s.parent != 0) {
        children[s.parent - 1].emplace_back(s.start_s, s.end_s);
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double reach = s.start_s;  // end of the covered prefix
      for (const auto& [start, end] : kids) {
        const double lo = std::max(start, reach);
        const double hi = std::min(end, s.end_s);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, std::min(end, s.end_s));
      }
      self[s.layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
    }
    return self;
  }

  /// Writes every span as a Chrome trace_event "X" event (one track per
  /// request). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(out, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"request\":%llu}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                   static_cast<unsigned long long>(s.request), s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  const bool enabled_;
  const clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<span> spans_;  ///< guarded by mutex_; span id = index + 1
};

}  // namespace perfbench

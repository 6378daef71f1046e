// What one benchmark run reports, and the helpers every workload shares:
// the in-memory span log of the traced run, stage timing, file sizes.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/snapshot.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double SecondsOf(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  // removed when the run ends
  std::string trace_path;   // Chrome trace written by the traced run
  Clock::time_point process_start;
};

struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Rendered JSON values, keyed by name, for the context line.
  std::vector<std::pair<std::string, std::string>> context;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value,
             const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Context(const std::string& key, const std::string& json_value) {
    context.emplace_back(key, json_value);
  }
};

// Benchmark-side spans around the calls into each layer, kept in memory
// and written with the program's own spans when the traced run ends.
// Disabled (every call a no-op) in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // The span [start, end) on benchmark thread `thread` (ids >= 90, apart
  // from the program tracer's small dense ids), on the tracer's timeline.
  privrec::obs::SpanRecord Make(
      const char* name, Clock::time_point start, Clock::time_point end,
      int64_t thread, int64_t depth = 0,
      std::vector<std::pair<std::string, std::string>> args = {}) const {
    privrec::obs::SpanRecord span;
    span.name = name;
    span.start_ns = ToTraceNs(start);
    span.duration_ns = ToTraceNs(end) - span.start_ns;
    span.thread_id = thread;
    span.depth = depth;
    span.args = std::move(args);
    return span;
  }

  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           int64_t thread, int64_t depth = 0,
           std::vector<std::pair<std::string, std::string>> args = {}) {
    if (!enabled_) return;
    privrec::obs::SpanRecord span =
        Make(name, start, end, thread, depth, std::move(args));
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  void Append(std::vector<privrec::obs::SpanRecord> spans) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& span : spans) spans_.push_back(std::move(span));
  }

  std::vector<privrec::obs::SpanRecord> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  int64_t ToTraceNs(Clock::time_point t) const {
    return offset_ns_ +
           std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
               .count();
  }

  const bool enabled_;
  const int64_t offset_ns_ =
      privrec::obs::Tracer::Instance().NowNs() -
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
  std::mutex mu_;  // guards spans_
  std::vector<privrec::obs::SpanRecord> spans_;
};

// Bytes on disk of an artifact: the file itself plus, for a sharded
// manifest, its sibling "<manifest>.shard<k>" files.
inline uint64_t ArtifactDiskBytes(const std::string& path) {
  namespace fs = std::filesystem;
  uint64_t bytes = 0;
  std::error_code ec;
  const fs::path p(path);
  const std::string prefix = p.filename().string() + ".shard";
  for (const auto& entry : fs::directory_iterator(p.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name == p.filename().string() || name.rfind(prefix, 0) == 0) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

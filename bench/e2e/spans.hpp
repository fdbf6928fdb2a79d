// In-memory spans for the benchmark's traced pass.
//
// Spans wrap the benchmark's own calls into each layer; nothing under src/
// is instrumented. Each span records a name, wall start and end, its parent
// span and the operation it belongs to. They stay in memory while the run
// measures and are written once, at the end, as Chrome-trace JSON
// (chrome://tracing or ui.perfetto.dev load it). A disabled recorder keeps
// nothing and costs one branch per span.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace summagen::e2e {

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  static constexpr int kInherit = -2;  ///< parent = thread's innermost span

  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::int64_t op = -1;
    int tid = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its id (-1 when disabled).
  int open(const std::string& name, std::int64_t op, int parent = kInherit) {
    if (!enabled_) return -1;
    std::vector<int>& stack = thread_stack();
    if (parent == kInherit) parent = stack.empty() ? -1 : stack.back();
    const int id = add(name, wall_s(), 0.0, op, parent);
    stack.push_back(id);
    return id;
  }

  /// Closes span `id`, which must be the calling thread's innermost span.
  void close(int id) {
    if (id < 0) return;
    const double end = wall_s();
    thread_stack().pop_back();
    std::lock_guard<std::mutex> lk(mu_);
    records_[static_cast<std::size_t>(id)].end_s = end;
  }

  /// Records a finished span after the fact (a service job, from the time
  /// it was due to its completion).
  int add(const std::string& name, double start_s, double end_s,
          std::int64_t op, int parent = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lk(mu_);
    records_.push_back({name, start_s, end_s, parent, op, thread_index()});
    return static_cast<int>(records_.size()) - 1;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return records_.size();
  }

  /// Summed duration of the spans named `name` that belong to `op`.
  double seconds(const std::string& name, std::int64_t op) const {
    std::lock_guard<std::mutex> lk(mu_);
    double total = 0.0;
    for (const Record& r : records_) {
      if (r.op == op && r.name == name) total += r.end_s - r.start_s;
    }
    return total;
  }

  /// Durations of every span named `name`.
  std::vector<double> durations(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Record& r : records_) {
      if (r.name == name) out.push_back(r.end_s - r.start_s);
    }
    return out;
  }

  /// Chrome-trace JSON: one complete ("X") event per span, timestamps in
  /// microseconds from the first span; id, parent and op ride in "args".
  bool write_chrome_trace(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path);
    if (!out) return false;
    double origin = records_.empty() ? 0.0 : records_.front().start_s;
    for (const Record& r : records_) origin = std::min(origin, r.start_s);
    out.precision(17);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << r.name
          << "\", \"cat\": \"" << r.name.substr(0, r.name.find('.'))
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.tid
          << ", \"ts\": " << (r.start_s - origin) * 1e6
          << ", \"dur\": " << (r.end_s - r.start_s) * 1e6
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << r.parent
          << ", \"op\": " << r.op << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::vector<int>& thread_stack() {
    thread_local std::vector<int> stack;
    return stack;
  }

  /// Small per-thread number for the trace's "tid" lanes.
  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int index = next++;
    return index;
  }

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record> records_;  ///< guarded by mu_
};

/// RAII span on the calling thread.
class Span {
 public:
  Span(SpanRecorder& rec, const std::string& name, std::int64_t op,
       int parent = SpanRecorder::kInherit)
      : rec_(rec), id_(rec.open(name, op, parent)) {}
  ~Span() { rec_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  const int id_;
};

}  // namespace summagen::e2e

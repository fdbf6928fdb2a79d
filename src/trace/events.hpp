// Structured event log for post-mortem inspection of a PMM run.
//
// Each rank appends events (compute / broadcast / copy / wait) with virtual
// start/end times; examples render the result as a per-rank timeline and the
// experiment runner derives the paper's computation/communication splits.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace summagen::trace {

enum class EventKind {
  kCompute,
  kBcast,
  kBarrier,
  kCopy,
  kWait,
  kTransfer,
  /// Non-blocking broadcast: the interval is the operation's occupancy of
  /// the rank's communication lane, which may overlap kCompute events of
  /// the same rank — that overlap is the win a pipelined schedule shows.
  kAsyncBcast,
};

const char* to_string(EventKind kind);

struct Event {
  int rank = 0;
  EventKind kind = EventKind::kCompute;
  double vstart = 0.0;  ///< virtual seconds
  double vend = 0.0;
  std::int64_t bytes = 0;   ///< payload for comm events
  std::int64_t flops = 0;   ///< work for compute events
  std::string detail;       ///< e.g. "subp(1,2) 1024x512"
};

/// Thread-safe append-only event collection shared by all ranks of a run.
class EventLog {
 public:
  /// When disabled, `record` is a cheap no-op (benches disable it).
  explicit EventLog(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  void record(Event e);

  /// Snapshot of all events, ordered by (rank, vstart).
  std::vector<Event> sorted() const;

  std::size_t size() const;

  /// Sum of (vend - vstart) for one rank and kind.
  double total_seconds(int rank, EventKind kind) const;

  /// Human-readable per-rank timeline (one line per event).
  std::string render_timeline() const;

  void clear();

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

}  // namespace summagen::trace

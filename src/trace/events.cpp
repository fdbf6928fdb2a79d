#include "src/trace/events.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace summagen::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kCompute:
      return "compute";
    case EventKind::kBcast:
      return "bcast";
    case EventKind::kBarrier:
      return "barrier";
    case EventKind::kCopy:
      return "copy";
    case EventKind::kWait:
      return "wait";
    case EventKind::kTransfer:
      return "transfer";
    case EventKind::kAsyncBcast:
      return "ibcast";
  }
  return "?";
}

void EventLog::record(Event e) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(e));
}

std::vector<Event> EventLog::sorted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out = events_;
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.vstart < b.vstart;
  });
  return out;
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

double EventLog::total_seconds(int rank, EventKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Event& e : events_) {
    if (e.rank == rank && e.kind == kind) total += e.vend - e.vstart;
  }
  return total;
}

std::string EventLog::render_timeline() const {
  std::ostringstream os;
  int last_rank = -1;
  for (const Event& e : sorted()) {
    if (e.rank != last_rank) {
      os << "rank " << e.rank << ":\n";
      last_rank = e.rank;
    }
    os << "  [" << std::fixed << std::setprecision(6) << e.vstart << ", "
       << e.vend << "] " << to_string(e.kind);
    if (e.bytes > 0) os << " " << e.bytes << "B";
    if (e.flops > 0) os << " " << e.flops << "flops";
    if (!e.detail.empty()) os << " " << e.detail;
    os << "\n";
  }
  return os.str();
}

void EventLog::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

}  // namespace summagen::trace

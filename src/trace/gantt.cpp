#include "src/trace/gantt.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

namespace summagen::trace {
namespace {

char glyph(EventKind kind) {
  switch (kind) {
    case EventKind::kCompute:
      return 'C';
    case EventKind::kTransfer:
      return 'T';
    case EventKind::kBcast:
      return 'B';
    case EventKind::kBarrier:
      return 'R';
    case EventKind::kCopy:
      return 'c';
    case EventKind::kWait:
      return '.';
    case EventKind::kAsyncBcast:
      return 'b';
  }
  return '?';
}

}  // namespace

std::string render_gantt(const std::vector<Event>& events, double makespan,
                         const GanttOptions& opts) {
  if (events.empty() || opts.width < 4) return "";
  double end = makespan;
  std::map<int, std::vector<const Event*>> lanes;
  for (const Event& e : events) {
    lanes[e.rank].push_back(&e);
    end = std::max(end, e.vend);
  }
  if (end <= 0.0) return "";

  const double bucket = end / opts.width;
  std::ostringstream os;
  for (auto& [rank, lane_events] : lanes) {
    // Per bucket, the activity covering the most time wins.
    std::string lane(static_cast<std::size_t>(opts.width), '.');
    std::vector<std::map<EventKind, double>> coverage(
        static_cast<std::size_t>(opts.width));
    double busy = 0.0;
    for (const Event* e : lane_events) {
      busy += std::max(0.0, e->vend - e->vstart);
      const int b0 = std::clamp(
          static_cast<int>(e->vstart / bucket), 0, opts.width - 1);
      const int b1 = std::clamp(static_cast<int>(e->vend / bucket), 0,
                                opts.width - 1);
      for (int b = b0; b <= b1; ++b) {
        const double lo = std::max(e->vstart, b * bucket);
        const double hi = std::min(e->vend, (b + 1) * bucket);
        if (hi > lo) coverage[static_cast<std::size_t>(b)][e->kind] += hi - lo;
      }
    }
    for (int b = 0; b < opts.width; ++b) {
      const auto& cover = coverage[static_cast<std::size_t>(b)];
      EventKind best_kind = EventKind::kWait;
      double best_time = 0.0;
      for (const auto& [kind, t] : cover) {
        if (t > best_time) {
          best_time = t;
          best_kind = kind;
        }
      }
      if (best_time > 0.0) {
        lane[static_cast<std::size_t>(b)] = glyph(best_kind);
      }
    }
    os << "P" << rank << " |" << lane << "|";
    if (opts.show_utilisation) {
      os << " " << std::fixed << std::setprecision(0)
         << std::min(100.0, 100.0 * busy / end) << "%";
    }
    os << "\n";
  }
  if (opts.show_scale) {
    os << "    0" << std::string(static_cast<std::size_t>(opts.width) - 1,
                                 '-')
       << std::setprecision(3) << end << "s"
       << "  (C=compute T=transfer B=bcast b=ibcast R=barrier .=idle)\n";
  }
  return os.str();
}

std::string export_chrome_trace(const std::vector<Event>& events) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  auto escape = [](const std::string& s) {
    std::string out;
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    return out;
  };
  for (const Event& e : events) {
    if (!first) os << ",";
    first = false;
    // Virtual seconds -> microseconds, the unit chrome://tracing expects.
    os << "\n{\"name\":\"" << to_string(e.kind) << "\",\"ph\":\"X\","
       << "\"pid\":0,\"tid\":" << e.rank << ",\"ts\":" << std::fixed
       << std::setprecision(3) << e.vstart * 1e6
       << ",\"dur\":" << std::max(0.0, e.vend - e.vstart) * 1e6
       << ",\"args\":{\"bytes\":" << e.bytes << ",\"flops\":" << e.flops
       << ",\"detail\":\"" << escape(e.detail) << "\"}}";
  }
  os << "\n]\n";
  return os.str();
}

}  // namespace summagen::trace

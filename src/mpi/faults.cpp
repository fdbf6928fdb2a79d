// FaultRuntime: trigger bookkeeping, failure detection, and the shrink /
// commit agreement gates (DESIGN.md "Fault model").
//
// Determinism: an event triggers when its victim's own virtual clock first
// reaches `at_vtime` at a runtime operation, so the trigger point is a pure
// function of the virtual execution. A blocked rank learns of a failure when
// it re-polls on its next turn, and the *virtual* detection time it records
// is max(own clock, trigger + detect_s).

#include "src/mpi/faults.hpp"

#include <algorithm>

#include "src/mpi/engine.hpp"

namespace summagen::sgmpi {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kSlowdown:
      return "slowdown";
    case FaultKind::kLinkSlowdown:
      return "link-slowdown";
    case FaultKind::kDrift:
      return "drift";
  }
  return "unknown";
}

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  const auto fail = [&](const std::string& item, const std::string& why) {
    throw std::invalid_argument("parse_fault_plan: '" + item + "': " + why +
                                " (expected <kind>@<t>:<rank>[x<arg>], "
                                "kind = crash|slow|link)");
  };
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      if (text.empty()) break;
      fail(text, "empty event");
    }

    const std::size_t at = item.find('@');
    const std::size_t colon = item.find(':', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || colon == std::string::npos) {
      fail(item, "missing '@' or ':'");
    }
    const std::string kind = item.substr(0, at);
    const std::string when = item.substr(at + 1, colon - at - 1);
    std::string rank = item.substr(colon + 1);
    std::string arg;
    const std::size_t x = rank.find('x');
    if (x != std::string::npos) {
      arg = rank.substr(x + 1);
      rank = rank.substr(0, x);
    }

    FaultEvent ev;
    if (kind == "crash") {
      ev.kind = FaultKind::kCrash;
      if (!arg.empty()) fail(item, "crash takes no 'x' argument");
    } else if (kind == "slow") {
      ev.kind = FaultKind::kSlowdown;
      ev.factor = 2.0;
    } else if (kind == "link") {
      ev.kind = FaultKind::kLinkSlowdown;
      ev.factor = 2.0;
    } else {
      fail(item, "unknown kind '" + kind + "'");
    }
    try {
      std::size_t used = 0;
      ev.at_vtime = std::stod(when, &used);
      if (used != when.size()) throw std::invalid_argument(when);
      ev.rank = std::stoi(rank, &used);
      if (used != rank.size()) throw std::invalid_argument(rank);
      if (!arg.empty()) {
        ev.factor = std::stod(arg, &used);
        if (used != arg.size()) throw std::invalid_argument(arg);
      }
    } catch (const std::exception&) {
      fail(item, "bad number");
    }
    plan.events.push_back(ev);
    if (comma == text.size()) break;
  }
  return plan;
}

namespace detail {

FaultRuntime::FaultRuntime(FaultPlan plan, int nranks, double detect_s)
    : nranks_(nranks),
      detect_s_(detect_s),
      dead_(static_cast<std::size_t>(nranks), false),
      shrink_arrived_(static_cast<std::size_t>(nranks), false),
      commit_arrived_(static_cast<std::size_t>(nranks), false) {
  events_.reserve(plan.events.size());
  for (const FaultEvent& e : plan.events) {
    if (e.rank < 0 || e.rank >= nranks) {
      throw std::invalid_argument("sgmpi: fault event rank " +
                                  std::to_string(e.rank) +
                                  " outside world of size " +
                                  std::to_string(nranks));
    }
    if ((e.kind == FaultKind::kSlowdown ||
         e.kind == FaultKind::kLinkSlowdown) &&
        e.factor <= 0.0) {
      throw std::invalid_argument("sgmpi: fault slowdown factor must be > 0");
    }
    EventState s;
    s.event = e;
    events_.push_back(s);
  }
}

void FaultRuntime::trigger_due_locked(int rank, double vtime) {
  for (EventState& s : events_) {
    if (s.phase != EventState::Phase::kPending || s.event.rank != rank)
      continue;
    if (vtime < s.event.at_vtime) continue;
    s.trigger_vtime = vtime;
    switch (s.event.kind) {
      case FaultKind::kCrash:
        s.phase = EventState::Phase::kTriggered;
        dead_[static_cast<std::size_t>(rank)] = true;
        break;
      case FaultKind::kSlowdown:
        s.phase = EventState::Phase::kTriggered;
        break;
      case FaultKind::kLinkSlowdown:
        // Non-interrupting: active from now on, settled immediately.
        s.phase = EventState::Phase::kHandled;
        s.handled_vtime = vtime;
        break;
      case FaultKind::kDrift:
        // Normally raised dynamically (raise_drift); a planned kDrift event
        // behaves like a slowdown whose detection is deferred to the commit
        // gate.
        s.phase = EventState::Phase::kTriggered;
        break;
    }
  }
}

FaultRuntime::EventState* FaultRuntime::live_failure_locked(
    bool include_drift) {
  for (EventState& s : events_) {
    if (s.phase != EventState::Phase::kTriggered || !interrupting(s)) continue;
    if (!include_drift && s.event.kind == FaultKind::kDrift) continue;
    return &s;
  }
  return nullptr;
}

void FaultRuntime::raise_drift(int rank, double vtime) {
  std::lock_guard<std::mutex> lock(mutex_);
  EventState s;
  s.event.kind = FaultKind::kDrift;
  s.event.rank = rank;
  s.event.at_vtime = vtime;
  s.phase = EventState::Phase::kTriggered;
  s.trigger_vtime = vtime;
  s.first_detect_vtime = vtime;  // the raiser detected it itself
  events_.push_back(s);
}

bool FaultRuntime::all_live_arrived_locked(
    const std::vector<bool>& arrived) const {
  for (int r = 0; r < nranks_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (!dead_[i] && !arrived[i]) return false;
  }
  return true;
}

void FaultRuntime::throw_detected_locked(EventState& failure,
                                         trace::VirtualClock& clk) {
  const double detected =
      std::max(clk.now(), failure.trigger_vtime + detect_s_);
  clk.wait_until(detected);
  if (failure.first_detect_vtime < 0.0 ||
      detected < failure.first_detect_vtime) {
    failure.first_detect_vtime = detected;
  }
  throw PeerFailedError(failure.event.rank, failure.event.kind, detected);
}

void FaultRuntime::poll(int rank, trace::VirtualClock& clk) {
  std::lock_guard<std::mutex> lock(mutex_);
  trigger_due_locked(rank, clk.now());
  if (dead_[static_cast<std::size_t>(rank)]) throw RankCrashedError(rank);
  // kDrift excluded: a drift raiser finishes its communication schedule
  // before raising, so peers complete their graphs undisturbed and observe
  // the drift at the commit gate instead.
  if (EventState* failure = live_failure_locked(/*include_drift=*/false)) {
    throw_detected_locked(*failure, clk);
  }
}

bool FaultRuntime::rank_dead(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dead_[static_cast<std::size_t>(rank)];
}

double FaultRuntime::compute_factor(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double factor = 1.0;
  for (const EventState& s : events_) {
    if (s.event.rank != rank || s.event.kind != FaultKind::kSlowdown) continue;
    if (s.phase != EventState::Phase::kPending) factor *= s.event.factor;
  }
  return factor;
}

double FaultRuntime::link_factor(int rank, double vtime) {
  std::lock_guard<std::mutex> lock(mutex_);
  double factor = 1.0;
  for (EventState& s : events_) {
    if (s.event.rank != rank || s.event.kind != FaultKind::kLinkSlowdown)
      continue;
    if (s.phase == EventState::Phase::kPending && vtime >= s.event.at_vtime) {
      s.phase = EventState::Phase::kHandled;
      s.trigger_vtime = vtime;
      s.handled_vtime = vtime;
    }
    if (s.phase != EventState::Phase::kPending) factor *= s.event.factor;
  }
  return factor;
}

ShrinkResult FaultRuntime::shrink_arrive(int rank, double entry_vtime) {
  std::unique_lock<std::mutex> lock(mutex_);
  shrink_arrived_[static_cast<std::size_t>(rank)] = true;
  ++shrink_arrived_count_;
  shrink_entry_max_ = std::max(shrink_entry_max_, entry_vtime);
  const std::uint64_t my_gen = shrink_gen_;
  while (shrink_gen_ == my_gen) {
    if (!shrink_finalizing_ && all_live_arrived_locked(shrink_arrived_)) {
      // First observer of completion finalises: reset the communicator
      // fabric (unwound ranks left slots and sequence counters in divergent
      // states), then settle every triggered event. The reset takes
      // communicator locks, so it runs without ours; everyone else is
      // parked here until the generation bumps.
      shrink_finalizing_ = true;
      lock.unlock();
      if (fabric_reset) fabric_reset();
      lock.lock();
      ShrinkResult result;
      for (int r = 0; r < nranks_; ++r) {
        if (!dead_[static_cast<std::size_t>(r)]) result.survivors.push_back(r);
      }
      for (EventState& s : events_) {
        if (s.phase == EventState::Phase::kTriggered) {
          s.phase = EventState::Phase::kHandled;
          s.handled_vtime = shrink_entry_max_;
          result.handled.push_back(s.event);
        }
      }
      result.agree_vtime = shrink_entry_max_;
      shrink_snapshot_ = result;
      std::fill(shrink_arrived_.begin(), shrink_arrived_.end(), false);
      shrink_arrived_count_ = 0;
      shrink_entry_max_ = 0.0;
      shrink_finalizing_ = false;
      ++shrink_gen_;
      return result;
    }
    engine_wait_step(lock);
  }
  // Released by the finaliser. The snapshot cannot have been overwritten: a
  // next round needs every live rank to arrive again, including us.
  return shrink_snapshot_;
}

std::pair<double, int> FaultRuntime::commit_arrive(int rank,
                                                   trace::VirtualClock& clk) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Trigger this rank's due events at the commit point (a rank whose crash
  // lands between its last operation and the commit dies here).
  trigger_due_locked(rank, clk.now());
  if (dead_[static_cast<std::size_t>(rank)]) throw RankCrashedError(rank);
  commit_arrived_[static_cast<std::size_t>(rank)] = true;
  ++commit_arrived_count_;
  commit_entry_max_ = std::max(commit_entry_max_, clk.now());
  const std::uint64_t my_gen = commit_gen_;
  while (commit_gen_ == my_gen) {
    // Failure first: if an interrupting event is live, every arriver must
    // unwind to recovery, so withdraw and throw rather than completing.
    // kDrift included: the commit gate is exactly where confirmed drift
    // surfaces to the peers.
    if (EventState* failure = live_failure_locked(/*include_drift=*/true)) {
      commit_arrived_[static_cast<std::size_t>(rank)] = false;
      --commit_arrived_count_;
      throw_detected_locked(*failure, clk);
    }
    if (all_live_arrived_locked(commit_arrived_)) {
      commit_result_ = commit_entry_max_;
      commit_live_ = 0;
      for (int r = 0; r < nranks_; ++r) {
        if (!dead_[static_cast<std::size_t>(r)]) ++commit_live_;
      }
      std::fill(commit_arrived_.begin(), commit_arrived_.end(), false);
      commit_arrived_count_ = 0;
      commit_entry_max_ = 0.0;
      ++commit_gen_;
      clk.wait_until(commit_result_);
      return {commit_result_, commit_live_};
    }
    engine_wait_step(lock);
  }
  clk.wait_until(commit_result_);
  return {commit_result_, commit_live_};
}

std::vector<FaultRecord> FaultRuntime::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FaultRecord> out;
  out.reserve(events_.size());
  for (const EventState& s : events_) {
    FaultRecord r;
    r.event = s.event;
    r.triggered = s.phase != EventState::Phase::kPending;
    r.handled = s.phase == EventState::Phase::kHandled;
    r.trigger_vtime = s.trigger_vtime;
    r.first_detect_vtime = s.first_detect_vtime;
    r.handled_vtime = s.handled_vtime;
    out.push_back(r);
  }
  return out;
}

}  // namespace detail
}  // namespace summagen::sgmpi

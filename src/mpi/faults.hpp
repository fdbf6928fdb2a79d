// Deterministic fault injection for the sgmpi runtime.
//
// A FaultPlan schedules per-rank events at *virtual-clock* times: link
// slowdowns, rank slowdowns, and rank crashes. Events trigger when the victim
// rank's own virtual clock reaches `at_vtime`, which keeps injection
// independent of the order ranks happen to run in: the same plan on the same
// workload always fails at the same point of the virtual execution.
//
// Interrupting events (crash, rank slowdown) unwind every live rank with a
// typed error so the caller can run ULFM-style recovery: the victim of a
// crash throws RankCrashedError, every other live rank observes the failure
// at its next runtime operation (or inside a blocked wait, which re-polls on
// every turn) and throws PeerFailedError. Survivors then agree on the
// failure epoch via Comm::shrink(). The non-interrupting link slowdown only
// perturbs the victim's modeled broadcast costs.
//
// When the plan is empty the runtime takes none of these paths — the
// fault-free execution is bit-identical, in results and virtual timing, to a
// build without fault hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/trace/vclock.hpp"

namespace summagen::sgmpi {

enum class FaultKind {
  kCrash,         ///< rank dies; survivors shrink and re-partition
  kSlowdown,      ///< rank's compute slows by `factor`; re-partition, no shrink
  kLinkSlowdown,  ///< rank's link costs scale by `factor`; no unwind
  /// Dynamic event raised at runtime by `Comm::raise_drift()` when a rank's
  /// drift detector confirms sustained load drift (never scheduled by a
  /// plan). Unlike crash/slowdown it does NOT interrupt peers mid-graph:
  /// `poll` ignores it, so peers run their full schedule and only observe
  /// the drift at the all-live `ft_commit` gate — the raiser finishes its
  /// communication schedule before raising, so no collective ever stalls on
  /// an unwound rank and every transition lands at a deterministic virtual
  /// time.
  kDrift,
};

const char* fault_kind_name(FaultKind kind);

/// One scheduled fault. `rank` is a world rank; the event triggers when that
/// rank's own virtual clock first reaches `at_vtime` at a runtime operation.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  int rank = 0;
  double at_vtime = 0.0;
  double factor = 1.0;  ///< slowdown multiplier (kSlowdown / kLinkSlowdown)
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  bool empty() const noexcept { return events.empty(); }
};

/// Parses the CLI fault syntax into a plan. The grammar is a comma-separated
/// list of events, each `<kind>@<t>:<rank>[x<arg>]`:
///
///   crash@0.5:1      rank 1 crashes at virtual time 0.5 s
///   slow@0.5:1x4     rank 1 computes 4x slower from t = 0.5 s
///   link@0.2:0x8     rank 0's link costs scale by 8x from t = 0.2 s
///
/// `x<arg>` is the factor for slow/link (default 2.0) and is rejected for
/// crash. Throws std::invalid_argument on malformed input; rank-range
/// validation happens later, in the Runtime constructor.
FaultPlan parse_fault_plan(const std::string& text);

/// Thrown on every live rank when a peer crashes or degrades past tolerance.
/// Carries enough context for the caller to drive recovery.
class PeerFailedError : public std::runtime_error {
 public:
  PeerFailedError(int rank_in, FaultKind kind_in, double detected_vtime_in)
      : std::runtime_error("sgmpi: peer rank " + std::to_string(rank_in) +
                           " failed (" + fault_kind_name(kind_in) + ")"),
        rank(rank_in),
        kind(kind_in),
        detected_vtime(detected_vtime_in) {}

  int rank;
  FaultKind kind;
  double detected_vtime;  ///< observer's virtual time at detection
};

/// Thrown on the victim rank itself when its scheduled crash triggers. A
/// fault-tolerant caller catches it and lets the thread exit quietly (the
/// Runtime does not treat it as an abort); the peers see PeerFailedError.
class RankCrashedError : public std::runtime_error {
 public:
  explicit RankCrashedError(int rank_in)
      : std::runtime_error("sgmpi: rank " + std::to_string(rank_in) +
                           " crashed by fault plan"),
        rank(rank_in) {}
  int rank;
};

/// Lifecycle snapshot of one planned event, for recovery metrics.
struct FaultRecord {
  FaultEvent event;
  bool triggered = false;
  bool handled = false;           ///< agreed on by survivors (shrink)
  double trigger_vtime = -1.0;    ///< victim's virtual time at trigger
  double first_detect_vtime = -1.0;  ///< earliest detection over all ranks
  double handled_vtime = -1.0;    ///< agreement entry-max at shrink
};

/// Outcome of a shrink agreement (Comm::shrink).
struct ShrinkResult {
  std::vector<int> survivors;       ///< live world ranks, ascending
  std::vector<FaultEvent> handled;  ///< events settled by this agreement
  double agree_vtime = 0.0;         ///< virtual time the survivors agreed at
};

namespace detail {

/// Runtime-wide fault state: one per Context, present only when the plan is
/// non-empty. All methods are thread-safe; `poll` is cheap enough to call
/// from wait loops.
class FaultRuntime {
 public:
  FaultRuntime(FaultPlan plan, int nranks, double detect_s);

  /// Called by the shrink finaliser (no FaultRuntime lock held) to reset
  /// communicator fabric — async slots, sequence counters, meetings —
  /// before survivors resume.
  std::function<void()> fabric_reset;

  /// Fault check for `rank` at its current virtual time: triggers this
  /// rank's due events (a due crash marks the rank dead and throws
  /// RankCrashedError), then throws PeerFailedError if any interrupting
  /// event is triggered but not yet handled. No-op otherwise.
  void poll(int rank, trace::VirtualClock& clk);

  bool rank_dead(int rank) const;

  /// Product of this rank's triggered compute-slowdown factors.
  double compute_factor(int rank) const;

  /// Arms due link-slowdown events for `rank` and returns the product of
  /// the active factors (1.0 when none).
  double link_factor(int rank, double vtime);

  /// Registers a confirmed-drift event for `rank` at virtual time `vtime`
  /// (already triggered — there is no pending phase). The caller then
  /// throws PeerFailedError(kDrift) on the raising rank; peers observe the
  /// event at the next commit gate, never from `poll`.
  void raise_drift(int rank, double vtime);

  /// Blocks until every live rank has arrived, then settles all triggered
  /// events as handled and resets the communication fabric (first observer
  /// of completion finalises). Ranks that die while others wait shrink the
  /// completion condition instead of deadlocking.
  ShrinkResult shrink_arrive(int rank, double entry_vtime);

  /// End-of-phase agreement: blocks until every live rank arrives, then
  /// returns {entry-max, live count} if no unhandled interrupting failure
  /// exists, and throws PeerFailedError on every arriver otherwise. A
  /// failure that triggers while waiting aborts the wait with
  /// PeerFailedError. The caller's clock is settled to the entry-max.
  std::pair<double, int> commit_arrive(int rank, trace::VirtualClock& clk);

  std::vector<FaultRecord> records() const;

 private:
  struct EventState {
    FaultEvent event;
    enum class Phase { kPending, kTriggered, kHandled } phase = Phase::kPending;
    double trigger_vtime = -1.0;
    double first_detect_vtime = -1.0;
    double handled_vtime = -1.0;
  };

  bool interrupting(const EventState& s) const {
    return s.event.kind == FaultKind::kCrash ||
           s.event.kind == FaultKind::kSlowdown ||
           s.event.kind == FaultKind::kDrift;
  }
  /// Triggers `rank`'s due events under the lock.
  void trigger_due_locked(int rank, double vtime);
  /// First triggered-but-unhandled interrupting event, or nullptr. kDrift
  /// events only count when `include_drift`: drift never unwinds peers from
  /// poll/waits (the raiser completes its communication schedule first), it
  /// surfaces at the commit gate.
  EventState* live_failure_locked(bool include_drift);
  bool all_live_arrived_locked(const std::vector<bool>& arrived) const;
  /// Settles detection on `clk` and throws PeerFailedError for `failure`.
  [[noreturn]] void throw_detected_locked(EventState& failure,
                                          trace::VirtualClock& clk);

  const int nranks_;
  const double detect_s_;

  mutable std::mutex mutex_;
  std::vector<EventState> events_;
  std::vector<bool> dead_;

  // Shrink gate.
  std::vector<bool> shrink_arrived_;
  int shrink_arrived_count_ = 0;
  double shrink_entry_max_ = 0.0;
  bool shrink_finalizing_ = false;
  std::uint64_t shrink_gen_ = 0;
  ShrinkResult shrink_snapshot_;

  // Commit gate.
  std::vector<bool> commit_arrived_;
  int commit_arrived_count_ = 0;
  double commit_entry_max_ = 0.0;
  std::uint64_t commit_gen_ = 0;
  double commit_result_ = 0.0;
  int commit_live_ = 0;
};

}  // namespace detail
}  // namespace summagen::sgmpi

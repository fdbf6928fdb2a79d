// Internal shared state of the sgmpi runtime. Not part of the public API.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "src/mpi/engine.hpp"
#include "src/mpi/mpi.hpp"

namespace summagen::sgmpi::detail {

/// Reusable rendezvous point: all `size` participants meet; each runs
/// `contribute` under the lock, the last arrival additionally runs
/// `finalize` under the lock, then everyone is released together.
///
/// Waits run `unwind_check` (which throws AbortedError / PeerFailedError
/// when the run must unwind) so that an exception on one rank unwinds the
/// whole parallel region instead of deadlocking. A blocked participant
/// yields to the fiber scheduler (engine_wait_step) and re-checks on its
/// next turn, so an abort or fault trigger is seen within one sweep.
class Meeting {
 public:
  template <typename UnwindCheck, typename Contribute, typename Finalize>
  void rendezvous(const UnwindCheck& unwind_check, int size,
                  Contribute&& contribute, Finalize&& finalize) {
    std::unique_lock<std::mutex> lock(mutex_);
    contribute();
    if (++count_ == size) {
      finalize();
      count_ = 0;
      ++generation_;
      return;
    }
    const std::uint64_t my_generation = generation_;
    while (generation_ == my_generation) {
      unwind_check();
      engine_wait_step(lock);
    }
    unwind_check();
  }

  /// Resets the meeting to its idle state. Only valid when no participant
  /// is inside `rendezvous` (the shrink finaliser holds this invariant:
  /// every live rank is parked in the shrink gate).
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    count_ = 0;
    ++generation_;
  }

 private:
  std::mutex mutex_;
  int count_ = 0;
  std::uint64_t generation_ = 0;
};

/// One in-flight non-blocking collective on a communicator. Collectives on
/// a communicator are matched by a per-member posting sequence number (the
/// standard MPI rule that all members issue collectives in the same order);
/// a slot is created by the first poster and retired by the last completer.
struct AsyncSlot {
  int posted = 0;     ///< members that have posted so far
  int copied = 0;     ///< non-root members that have copied the payload
  int finished = 0;   ///< members whose wait/test has completed
  double entry_max = 0.0;      ///< max comm-lane start over posters
  const void* src = nullptr;   ///< root's payload (valid until root leaves)
  std::int64_t bytes = -1;     ///< payload size (validated across members)
  int root = -1;               ///< communicator rank of the root
  bool root_posted = false;
  // Panel (strided) broadcasts: geometry of the root's source view, so
  // receivers copy row-wise straight out of the root's matrix instead of a
  // flat staging buffer. -1 = contiguous op / root not yet posted.
  std::int64_t src_ld = -1;    ///< root-side leading dimension (doubles)
  std::int64_t rows = -1;      ///< panel rows (validated across members)
  std::int64_t cols = -1;      ///< panel cols (validated across members)
};

/// State shared by all members of one communicator.
struct CommState {
  explicit CommState(std::vector<int> members_in)
      : members(std::move(members_in)),
        next_post_seq(members.size(), 0) {}

  std::vector<int> members;  ///< world ranks; communicator rank = index
  trace::HockneyParams link;  ///< fabric used by this communicator's
                              ///< collectives (set at creation)
  // Topology summary for two-level collective pricing (set at creation):
  // how many distinct nodes the members span, and the widest per-node
  // member count — the sizes of the inter- and intra-node stages.
  int n_nodes = 1;
  int max_node_ranks = 1;

  Meeting meeting;

  // Non-blocking collectives (ibcast and the blocking wrappers built on
  // it). Guarded by `async_mutex`; waiters re-check their slot plus the
  // abort flag after every yield, mirroring Meeting.
  std::mutex async_mutex;
  std::vector<std::uint64_t> next_post_seq;    ///< per-member post counter
  std::map<std::uint64_t, AsyncSlot> async_slots;  ///< keyed by sequence

  // Scratch for the collective in flight (written in `contribute`/`finalize`
  // under the meeting lock, reset by the trailing rendezvous).
  double entry_max = 0.0;
  double op_complete = 0.0;
  double reduce_acc = 0.0;
  bool reduce_started = false;  ///< first contributor seeds the accumulator
  std::vector<double> gather_buf;
  std::vector<double> reduce_buf;  ///< buffer allreduce accumulator
  std::vector<int> reduce_ranks;   ///< buffer allreduce contributors (comm
                                   ///< ranks; summed in ascending order)
};

}  // namespace summagen::sgmpi::detail

namespace summagen::sgmpi {

/// Whole-runtime shared state (one per Runtime).
class Context {
 public:
  explicit Context(Config config_in)
      : config(std::move(config_in)),
        clocks(static_cast<std::size_t>(config.nranks)),
        event_log(config.record_events) {
    if (!config.node_of.empty() &&
        config.node_of.size() != static_cast<std::size_t>(config.nranks)) {
      throw std::invalid_argument("sgmpi: node_of size != nranks");
    }
    // State 0 is the world communicator.
    std::vector<int> world(static_cast<std::size_t>(config.nranks));
    for (int r = 0; r < config.nranks; ++r)
      world[static_cast<std::size_t>(r)] = r;
    states.emplace_back(world);
    states.back().link = link_for(world);
    init_topology(states.back());
    subgroup_cache.emplace(std::move(world), 0);
    if (!config.faults.empty() || config.adaptive) {
      faults = std::make_unique<detail::FaultRuntime>(
          config.faults, config.nranks, config.fault_detect_s);
      faults->fabric_reset = [this] { reset_fabric(); };
    }
  }

  /// Deque elements have stable addresses, but indexing walks the deque's
  /// internal node map, which reallocates when `subgroup_state` appends —
  /// so the walk itself must hold the lock. The returned reference stays
  /// valid after release.
  detail::CommState& state(std::size_t index) {
    std::lock_guard<std::mutex> lock(states_mutex);
    return states[index];
  }

  int node_of(int rank) const {
    if (config.node_of.empty()) return 0;
    return config.node_of[static_cast<std::size_t>(rank)];
  }

  /// Per-node member counts of a communicator, summarised into the fields
  /// two-level collective pricing reads.
  void init_topology(detail::CommState& st) const {
    st.n_nodes = 1;
    st.max_node_ranks = static_cast<int>(st.members.size());
    if (config.node_of.empty()) return;
    std::map<int, int> per_node;
    for (int r : st.members) ++per_node[node_of(r)];
    st.n_nodes = static_cast<int>(per_node.size());
    st.max_node_ranks = 1;
    for (const auto& [node, count] : per_node) {
      (void)node;
      st.max_node_ranks = std::max(st.max_node_ranks, count);
    }
  }

  /// Intra-node fabric when every listed rank shares a node, inter-node
  /// link otherwise.
  trace::HockneyParams link_for(const std::vector<int>& ranks) const {
    if (config.node_of.empty() || ranks.size() < 2) return config.link;
    const int first = node_of(ranks.front());
    for (int r : ranks) {
      if (node_of(r) != first) return config.internode_link;
    }
    return config.link;
  }

  /// Returns the index of the cached communicator state for `members`,
  /// creating it if needed. Communicators are cached by member list: every
  /// logical re-creation with the same members reuses the state, which is
  /// sound because all members order their operations identically.
  std::size_t subgroup_state(const std::vector<int>& members) {
    std::lock_guard<std::mutex> lock(states_mutex);
    const auto it = subgroup_cache.find(members);
    if (it != subgroup_cache.end()) return it->second;
    states.emplace_back(members);
    states.back().link = link_for(members);
    init_topology(states.back());
    const std::size_t index = states.size() - 1;
    subgroup_cache.emplace(members, index);
    return index;
  }

  /// Unwind check run by every blocked wait and operation entry: throws
  /// AbortedError when the run is aborting, and (when fault injection is
  /// active) lets the fault runtime trigger due events / surface failures
  /// for `world_rank`. With an empty fault plan this is exactly the old
  /// abort-flag check.
  void unwind_check(int world_rank) {
    if (aborted.load(std::memory_order_relaxed)) throw AbortedError();
    if (faults) {
      faults->poll(world_rank, clocks[static_cast<std::size_t>(world_rank)]);
    }
  }

  /// Resets all communicator fabric to its idle state: in-flight async
  /// slots, posting sequence counters, and meeting scratch.
  /// Called by the shrink finaliser while every live rank is parked in the
  /// shrink gate (so nothing is mid-operation) — unwound ranks leave
  /// divergent sequence counters and orphaned slots behind, which would
  /// mismatch the first post-recovery collective.
  void reset_fabric() {
    std::lock_guard<std::mutex> lock(states_mutex);
    for (auto& st : states) {
      {
        std::lock_guard<std::mutex> async_lock(st.async_mutex);
        st.async_slots.clear();
        std::fill(st.next_post_seq.begin(), st.next_post_seq.end(), 0);
        st.entry_max = 0.0;
        st.op_complete = 0.0;
        st.reduce_acc = 0.0;
        st.reduce_started = false;
        st.gather_buf.clear();
        st.reduce_buf.clear();
        st.reduce_ranks.clear();
      }
      st.meeting.reset();
    }
  }

  Config config;
  std::vector<trace::VirtualClock> clocks;
  trace::EventLog event_log;
  std::unique_ptr<detail::FaultRuntime> faults;  ///< null when plan empty
  std::atomic<bool> aborted{false};
  bool poisoned = false;  ///< set after an aborted run; Runtime enforces

  std::mutex states_mutex;
  std::deque<detail::CommState> states;  ///< stable addresses
  std::map<std::vector<int>, std::size_t> subgroup_cache;
};

}  // namespace summagen::sgmpi

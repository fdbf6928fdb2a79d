// sgmpi: an in-process MPI-like message-passing runtime.
//
// Substrate replacing Intel MPI in the reproduction (DESIGN.md §2). The
// paper runs SummaGen with one MPI process per abstract processor on a
// single node; here each rank is a fiber on the thread that runs the
// region (engine.hpp), and the primitives the paper's code uses
// (communicators, sub-communicators over the ranks of a sub-partition
// row/column, `MPI_Bcast`) are implemented over shared memory with
// rendezvous synchronisation. The runtime is collectives-only:
// broadcasts, reductions, barrier and gather — SummaGen, SUMMA and 2.5D move
// no data point-to-point.
//
// Timing: every operation advances the calling rank's *virtual clock* using
// the Hockney model (Section III-A of the paper). Collectives are
// synchronising in virtual time: completion = max(entry times) + tree cost.
// Payload pointers may be null, in which case only the clocks move — this is
// the `Modeled` data plane that lets benches run at the paper's N (10+ GB
// matrices) without allocating them.
//
// Thread-safety: a Comm handle belongs to exactly one rank. All ranks of a
// communicator must invoke collectives in the same order (standard MPI
// contract). Separate Runtimes may run concurrently on separate threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/mpi/faults.hpp"
#include "src/trace/events.hpp"
#include "src/trace/hockney.hpp"
#include "src/trace/vclock.hpp"
#include "src/util/matrix_view.hpp"

namespace summagen::sgmpi {

class Context;

/// The rank engine: every rank is a cooperative fiber (DESIGN.md §5.14),
/// so this enum has one value and nothing reads it. It stays only because
/// the frozen repo benchmark (bench/e2e/summagen_e2e.cpp) assigns
/// core::ExperimentConfig::engine = kModeled; the next benchmark change
/// drops both.
enum class Engine {
  kModeled,
};

/// Configuration of a runtime instance.
struct Config {
  int nranks = 3;
  trace::HockneyParams link;   ///< intra-node fabric between ranks
  bool record_events = false;  ///< populate the EventLog

  /// Multi-node topology (paper future work: "distributed-memory nodes and
  /// large clusters"). `node_of[rank]` maps each rank to a node id; empty =
  /// all ranks on one node. Communication between ranks on different nodes
  /// is priced with `internode_link`; a collective whose members span nodes
  /// pays the inter-node price (its broadcast tree crosses the network).
  std::vector<int> node_of;
  trace::HockneyParams internode_link{20.0e-6, 1.0 / 1.0e9};

  /// Broadcast algorithm priced into bcast/ibcast costs (trace::BcastAlgo).
  /// kTree is the historical binomial tree and keeps virtual times
  /// bit-identical to prior releases; flat/ring/pipelined/auto re-price the
  /// collective per resolve_bcast_algo.
  trace::BcastAlgo bcast_algo = trace::BcastAlgo::kTree;
  /// Topology-aware two-level collectives: a broadcast whose communicator
  /// spans nodes is priced as an inter-node stage over the node leaders plus
  /// the widest intra-node stage, instead of one flat tree over the
  /// inter-node link. Default off (the historical flat pricing).
  bool two_level_collectives = false;

  /// Scheduled fault injection (see faults.hpp). Empty = fault-free: the
  /// runtime takes no fault paths and execution is bit-identical, in results
  /// and virtual timing, to a build without the fault subsystem.
  FaultPlan faults;
  /// Modeled failure-detector latency: a peer failure at virtual time t is
  /// observed by a blocked rank no earlier than t + fault_detect_s.
  double fault_detect_s = 0.05;
  /// Adaptive execution: create the fault runtime even with an empty plan,
  /// so ranks may raise dynamic events (Comm::raise_drift) and use the
  /// shrink/ft_commit agreement gates for online re-partitioning. False
  /// with an empty plan = the exact fault-free execution path.
  bool adaptive = false;
};

/// Thrown on the sibling ranks when one rank aborts with an exception, so
/// the whole parallel region unwinds instead of deadlocking.
class AbortedError : public std::runtime_error {
 public:
  AbortedError() : std::runtime_error("sgmpi: run aborted by another rank") {}
};

/// Handle to one in-flight non-blocking operation (MPI_Request analogue).
///
/// Obtained from `Comm::ibcast_bytes` / `ibcast_panel` and completed with
/// `Comm::wait` / `waitall` / `test` on the same Comm. A default-constructed
/// Request is null: waiting on it is a no-op. Requests are move-only;
/// destroying a pending request without completing it is a programming
/// error — the peers of a collective would block forever waiting for this
/// rank's completion — and fails loudly: the destructor logs the op kind
/// and communicator and calls std::abort(). Destruction during exception
/// unwind is tolerated (the run is already tearing down).
class Request {
 public:
  Request() = default;
  ~Request();
  Request(Request&&) noexcept = default;
  Request& operator=(Request&&) noexcept = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// True while the operation has been posted but not yet completed.
  bool pending() const noexcept { return op_ != nullptr; }

 private:
  friend class Comm;

  enum class Kind { kBcastRecv, kBcastSendRoot };

  struct Op {
    Kind kind = Kind::kBcastRecv;
    std::size_t state_index = 0;  ///< communicator the op was posted on
    std::uint64_t seq = 0;        ///< per-communicator matching sequence
    void* recv_buf = nullptr;     ///< receiver payload
    std::int64_t bytes = 0;
    int root = -1;                ///< communicator rank of the bcast root
    double cost = 0.0;        ///< modeled Hockney cost of the operation
    double lane_start = 0.0;  ///< comm-lane slot reserved at post time
    bool blocking = false;    ///< posted by a blocking wrapper (event kind)

    // Strided (panel) descriptor, set by the *_panel operations: the
    // payload is a panel_rows x panel_cols double block. recv_buf/dst_ld
    // locate this rank's destination; panel_src/src_ld the root's source
    // view (used for the root's own local store at completion).
    bool panel = false;
    std::int64_t panel_rows = 0;
    std::int64_t panel_cols = 0;
    std::int64_t src_ld = 0;
    std::int64_t dst_ld = 0;
    const double* panel_src = nullptr;
  };

  explicit Request(std::unique_ptr<Op> op) : op_(std::move(op)) {}
  std::unique_ptr<Op> op_;
};

/// Communicator handle bound to one rank.
///
/// `rank()`/`size()` follow MPI conventions. For subgroup communicators,
/// `world_ranks()[r]` maps communicator rank r to the world rank — the
/// `comm_ranks` array of the paper's Figure 2.
class Comm {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;
  const std::vector<int>& world_ranks() const noexcept;
  int world_rank() const noexcept;

  /// Synchronising barrier (virtual cost: two empty tree traversals).
  void barrier();

  /// Broadcast of `bytes` bytes from communicator rank `root`. All members
  /// call with the same `bytes` and `root`; `data` is the send buffer on
  /// the root and the receive buffer elsewhere (may be null everywhere for
  /// modeled-only traffic). Returns the modeled cost charged to this rank.
  /// Implemented as ibcast_bytes + wait.
  double bcast_bytes(void* data, std::int64_t bytes, int root);

  /// Typed convenience over bcast_bytes.
  double bcast(double* data, std::int64_t count, int root) {
    return bcast_bytes(data, count * static_cast<std::int64_t>(sizeof(double)),
                       root);
  }

  /// Non-blocking broadcast. Posts the operation on this rank — posting
  /// never blocks on the peers — and reserves this rank's communication
  /// lane; completion (payload delivery and virtual-time settlement)
  /// happens in `wait`/`waitall`/`test`. All members must post collectives
  /// on a communicator in the same order and eventually complete every
  /// posted request. The root's buffer must stay valid until its own wait
  /// returns (which also guarantees every receiver has copied).
  Request ibcast_bytes(void* data, std::int64_t bytes, int root);

  /// Strided (zero-copy) broadcast of a rows x cols double panel from
  /// communicator rank `root`. The root passes `src` — a view of its owned
  /// data, typically a sub-block viewed in place inside a larger matrix —
  /// and every member that wants the panel stored locally passes `dst`
  /// (leading dimensions are free on both ends; non-root members pass {}
  /// for `src`). Receivers copy row-wise straight out of the root's buffer
  /// at completion, and the root's own `dst` (when non-empty) is filled at
  /// its wait — neither side stages through a contiguous scratch buffer.
  /// Wire size, modeled cost and event shape are exactly those of
  /// `bcast_bytes` with rows*cols*sizeof(double) bytes.
  double bcast_panel(util::ConstMatrixView src, util::MatrixView dst,
                     int root);

  /// Non-blocking form of `bcast_panel`; same contract as `ibcast_bytes`
  /// (the root's `src` must stay valid until its own wait returns).
  Request ibcast_panel(util::ConstMatrixView src, util::MatrixView dst,
                       int root);

  /// Blocks until `request` completes; null requests return immediately.
  /// Returns the modeled cost charged to this rank (0 for null/trivial
  /// operations). The request becomes null.
  double wait(Request& request);

  /// Waits on every request in order; returns the summed modeled cost.
  double waitall(std::vector<Request>& requests);

  /// Attempts to complete `request` without blocking: returns true (and
  /// settles the request exactly like `wait`) if the operation can finish
  /// now, false if it would have to block on a peer. Null requests test
  /// true.
  bool test(Request& request);

  /// Allreduce of one double with max/sum combiners.
  double allreduce_max(double value);
  double allreduce_sum(double value);

  /// Element-wise sum-allreduce of a buffer of `count` doubles (in place on
  /// every member). `data` may be null everywhere for modeled-only traffic.
  /// Returns the modeled cost charged to this rank.
  double allreduce_sum_buffer(double* data, std::int64_t count);

  /// Gathers one double from every member onto `root` (others get {}).
  std::vector<double> gather(double value, int root);

  /// Fault check: throws if this rank must unwind — AbortedError when the
  /// run is aborting, RankCrashedError when this rank's own scheduled crash
  /// is due, PeerFailedError when an interrupting fault has triggered and
  /// is not yet handled. No-op when the fault plan is empty and the run is
  /// healthy. Every runtime operation performs this check on entry; call it
  /// from compute loops to bound detection latency.
  void fault_check();

  /// Multiplier (>= 1 in practice) applied to this rank's compute costs by
  /// triggered slowdown faults; exactly 1.0 when the fault plan is empty.
  double compute_slowdown() const;

  /// Raises a confirmed-drift event for this rank at its current virtual
  /// time and throws PeerFailedError(kDrift) on the caller. Call only after
  /// this rank has completed its communication schedule for the phase: the
  /// peers keep running undisturbed (poll ignores kDrift) and observe the
  /// event at the ft_commit gate, then everyone shrinks and re-partitions.
  /// Requires a fault plan or Config::adaptive.
  [[noreturn]] void raise_drift();

  /// ULFM-style agreement after a failure: every live rank that caught
  /// PeerFailedError calls shrink(); it blocks until all live ranks arrive,
  /// settles every triggered fault as handled, resets communicator fabric
  /// (in-flight slots, sequence counters, meeting scratch), and returns the
  /// survivor list plus the agreed virtual time. Collective over all live
  /// ranks; requires a non-empty fault plan.
  ShrinkResult shrink();

  /// End-of-phase commitment: blocks until every live rank arrives, then
  /// returns the agreed virtual time if no unhandled fault exists and
  /// throws PeerFailedError on every arriver otherwise. This is how a
  /// fault-tolerant caller ensures a failure that triggered after its last
  /// communication (e.g. during trailing compute) is still recovered.
  /// Collective over all live ranks; requires a non-empty fault plan.
  double ft_commit();

  /// Collective among exactly the listed *world* ranks (sorted ascending or
  /// in the order given; communicator rank = index in the list). Every
  /// listed rank must call with an identical list; the calling rank must be
  /// a member. This is the `get_subp_comm` of the paper's Figure 2/3.
  Comm subgroup(const std::vector<int>& members);

  /// Virtual clock of this rank (shared across all communicators).
  trace::VirtualClock& clock();
  const trace::VirtualClock& clock() const;

  /// Event log of the run (shared, may be disabled).
  trace::EventLog& events();

  /// Hockney parameters used by this communicator: the intra-node fabric
  /// if all members share a node, the inter-node link otherwise.
  const trace::HockneyParams& link() const;

 private:
  friend class Runtime;
  friend class Context;
  Comm(std::shared_ptr<Context> ctx, std::size_t state_index, int rank)
      : ctx_(std::move(ctx)), state_index_(state_index), rank_(rank) {}

  /// Posts a broadcast whose payload fields (recv_buf, bytes, root and,
  /// for a panel, its shape and views) `op` already holds: fills in the
  /// rest, reserves this rank's comm lane and registers the post in the
  /// communicator's matching slot. `src`/`src_ld` are the root's payload
  /// (src_ld -1 = contiguous). Throws std::invalid_argument when the
  /// members disagree on size, root or panel shape.
  Request post_bcast(Request::Op op, const void* src, std::int64_t src_ld);

  /// Appends the event-log entry for a completed request.
  void record_completion(const Request::Op& op, double wait_entry,
                         double completion);

  /// Modeled completion cost of a broadcast of `bytes` on this q-member
  /// communicator under Config::bcast_algo, with the optional two-level
  /// topology pricing (inter-node stage over the node leaders plus the
  /// widest intra-node stage) when the members span nodes.
  double modeled_bcast_cost(std::int64_t bytes, int q) const;

  std::shared_ptr<Context> ctx_;
  std::size_t state_index_;  ///< index of the CommState in the context
  int rank_;                 ///< my rank within this communicator
};

/// Owns the parallel region: runs `nranks` rank fibers on the calling
/// thread, hands each a world communicator, and rethrows the first
/// exception once every rank has returned.
class Runtime {
 public:
  explicit Runtime(Config config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Executes `body(world)` on every rank. May be called repeatedly; clocks
  /// and the event log persist across calls until `reset_clocks()`.
  void run(const std::function<void(Comm&)>& body);

  int nranks() const noexcept { return config_.nranks; }

  /// Clock of `rank` (valid between runs).
  const trace::VirtualClock& clock(int rank) const;

  /// Maximum virtual completion time over all ranks — the parallel
  /// execution time of the last run.
  double max_vtime() const;

  trace::EventLog& events();

  void reset_clocks();

  /// Lifecycle snapshot of every planned fault event (empty when the plan
  /// is empty) — trigger, detection, and agreement virtual times.
  std::vector<FaultRecord> fault_records() const;

 private:
  Config config_;
  std::shared_ptr<Context> ctx_;
};

}  // namespace summagen::sgmpi

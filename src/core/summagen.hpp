// SummaGen: parallel matrix-matrix multiplication over (possibly
// non-rectangular) partitions — the paper's primary contribution
// (Section IV).
//
// C = A * B with A, B, C square n x n matrices laid out by a PartitionSpec.
// Like SUMMA, the algorithm has three stages, executed by every rank:
//
//   1. Horizontal communications of A (Figure 2): for every sub-partition
//      row the rank appears in, every sub-partition of that row is
//      broadcast across the row's owners (or copied locally when a single
//      processor owns the whole row), accumulating into the working matrix
//      WA (covering rows x n).
//   2. Vertical communications of B (Figure 3): symmetric, down the
//      sub-partition columns, into WB (n x covering columns).
//   3. Local computations (Figure 4): one DGEMM per *owned* sub-partition
//      (height x n) * (n x width) — computing per sub-partition rather than
//      WA*WB avoids redundantly computing cells owned by other ranks.
//
// The function is data-plane agnostic: with a numeric LocalData it moves
// and multiplies real doubles; with `data == nullptr` it performs the same
// communication schedule with null payloads and only advances the virtual
// clocks (benches at paper-scale N). It allocates no workspace: a numeric
// rank's WA and WB are its slices of the one lease its RunStores holds for
// all ranks of the run (src/core/dataplane.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>

#include "src/core/dataplane.hpp"
#include "src/device/device.hpp"
#include "src/mpi/mpi.hpp"
#include "src/partition/spec.hpp"
#include "src/trace/step_timing.hpp"

namespace summagen::core {

/// Which schedule executes the derived plan's task graph
/// (src/core/plan.hpp, src/core/taskgraph/).
enum class Scheduler {
  /// The paper's strict phase order: all A broadcasts, all B broadcasts,
  /// then all local DGEMMs, every communication blocking. The oracle: its
  /// numeric results and virtual timing match the original implementation
  /// bit for bit.
  kEager,
  /// Dataflow execution of the dependency task graph: broadcasts are
  /// posted non-blocking ahead up to the `overlap_depth` window and
  /// completed in the plan's collective order, while every DGEMM is split
  /// into k-chunks along the shared dimension that run as soon as *their*
  /// broadcasts have landed (GemmChunk::dep in src/core/plan.hpp) — the
  /// rank blocks in a broadcast completion only when no chunk is ready, so
  /// compute never idles behind a panel another chunk could hide.
  /// Bit-identical to kEager: chunks of one cell chain in ascending-k
  /// order and distinct cells touch disjoint C; only the modeled timeline
  /// changes.
  kTaskGraph,
};

const char* to_string(Scheduler scheduler);
/// Inverse of to_string: "eager" | "taskgraph". Throws
/// std::invalid_argument naming the accepted values otherwise.
Scheduler parse_scheduler(const std::string& name);

/// Execution options shared by all ranks of a run.
struct SummaGenOptions {
  /// Split every sub-partition broadcast into row panels of at most this
  /// many rows (the paper's "blocks of size r" made operational): bounds
  /// the temporary receive buffer at panel * width elements at the cost of
  /// more broadcast latencies. 0 = broadcast whole sub-partitions (the
  /// paper's Figures 2-3 behaviour).
  std::int64_t bcast_panel_rows = 0;

  Scheduler scheduler = Scheduler::kEager;

  /// kTaskGraph: maximum number of posted-but-uncompleted broadcasts per
  /// rank — the DAG's in-flight-broadcast window (how far the executor
  /// posts ahead of the completion front). <= 0 means unbounded; kEager
  /// ignores it.
  int overlap_depth = 2;
};

/// Per-rank accounting returned by one SummaGen execution.
struct RankReport {
  int bcasts = 0;                  ///< broadcasts participated in
  std::int64_t bcast_bytes = 0;    ///< payload bytes of those broadcasts
  double mpi_time_s = 0.0;         ///< modeled MPI time charged to this rank
  int gemm_calls = 0;              ///< local DGEMM invocations
  std::int64_t flops = 0;          ///< local floating-point operations
  double kernel_compute_s = 0.0;   ///< modeled in-core kernel time
  double kernel_transfer_s = 0.0;  ///< modeled host<->device staging time
  /// Broadcast cost hidden behind local compute by the dataflow
  /// scheduler (always 0 under kEager) — this rank's overlap win.
  double hidden_comm_s = 0.0;
};

/// Fault-tolerance hooks threaded through one SummaGen execution
/// (DESIGN.md "Fault model"). All fields optional; a null FtContext* (the
/// default) leaves the execution path untouched.
struct FtContext {
  /// C sub-partitions already completed by earlier recovery phases. When
  /// non-empty the task graph is pruned (taskgraph::prune_completed):
  /// their DGEMM chunks are dropped, and with them every broadcast/copy
  /// feeding only finished cells. The first rank of a phase prunes; the
  /// others read the same pruned graph. Node ids — and with them the
  /// chunk->broadcast dependencies — survive pruning, so recovery phases
  /// run under whichever scheduler the caller configured: recovery is
  /// re-scheduling the un-run subgraph, not a bespoke retry path.
  const std::set<std::pair<int, int>>* done = nullptr;

  /// Invoked after each owned C sub-partition (bi, bj) finishes — the
  /// completion tracker recovery snapshots. Called from every rank; must
  /// be safe across ranks.
  std::function<void(int, int)> on_gemm_done;

  /// Live drift multiplier for this rank's modeled compute time at a given
  /// virtual time (device::drift_factor over the run's DriftPlan). Null =
  /// 1.0 everywhere — the exact static model. Applied at each compute
  /// quantum's start time; numeric kernels are unaffected (the simulated
  /// background load stretches modeled time only).
  std::function<double(double)> drift_factor;

  /// Drift detector hook, invoked after every owned compute step with the
  /// step's predicted (static model incl. fault slowdowns) and observed
  /// (incl. drift) modeled durations. Returns true to confirm drift: the
  /// rank then *sheds* its remaining compute (skipping kernels and their
  /// clock charges) while still executing its full communication schedule,
  /// and raises sgmpi kDrift after the graph completes — peers finish
  /// undisturbed and the re-partition happens at the commit gate. Called
  /// from this rank's fiber only.
  std::function<bool(const trace::StepSample&)> on_step;
};

/// Executes SummaGen on the calling rank.
///
/// `world` must have one rank per processor named in `spec`; `ap` is this
/// rank's abstract processor (its performance model prices the local
/// DGEMMs). `data` selects the plane: this rank's LocalData from a
/// RunStores over `spec` (which owns its WA/WB), or nullptr for the
/// modeled plane. `contended` mirrors the paper's
/// simultaneous-load measurement methodology. `ft` (optional) wires the
/// fault-tolerant runner in: completed-cell tracking plus re-execution of
/// only the unfinished plan ops. Under a fault plan the execution polls for
/// fault events at op boundaries and may throw sgmpi::PeerFailedError /
/// sgmpi::RankCrashedError mid-run.
///
/// All ranks must call collectively with the same spec. Throws
/// std::invalid_argument on spec/world mismatches and on a store whose
/// workspace was released.
RankReport summagen_rank(sgmpi::Comm& world,
                         const partition::PartitionSpec& spec,
                         const device::AbstractProcessor& ap, LocalData* data,
                         bool contended = true,
                         const SummaGenOptions& options = {},
                         const FtContext* ft = nullptr);

}  // namespace summagen::core

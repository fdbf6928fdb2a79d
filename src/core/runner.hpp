// Experiment runner: one call = one PMM execution for one shape, exactly
// the unit the paper's Figures 6-8 sweep.
//
// The runner wires the full pipeline: workload partitioning (CPM or the
// FPM load-imbalancing partitioner) -> shape construction (Section V) ->
// SummaGen over the sgmpi runtime with one abstract processor per rank ->
// metric extraction (execution/computation/communication time split,
// TFLOPs, communication volume, dynamic energy) and, on the numeric plane,
// verification against the serial reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/blas/gemm.hpp"
#include "src/core/drift.hpp"
#include "src/core/recovery.hpp"
#include "src/core/runtime_context.hpp"
#include "src/core/summagen.hpp"
#include "src/device/drift.hpp"
#include "src/device/platform.hpp"
#include "src/energy/energy.hpp"
#include "src/partition/areas.hpp"
#include "src/partition/shapes.hpp"
#include "src/util/accounting.hpp"

namespace summagen::core {

/// Which performance models drive the workload distribution (Section VI).
enum class Regime {
  kConstant,    ///< constant speeds (paper VI-A, speeds {1.0, 2.0, 0.9})
  kFunctional,  ///< non-smooth FPMs + load-imbalancing partitioner (VI-B)
};

struct ExperimentConfig {
  device::Platform platform = device::Platform::hclserver1();
  std::int64_t n = 1024;
  partition::Shape shape = partition::Shape::kSquareCorner;
  Regime regime = Regime::kConstant;

  /// CPM speeds; empty = derive from the platform's contended profiles over
  /// the constant range (how the paper obtains {1.0, 2.0, 0.9}).
  std::vector<double> cpm_speeds;

  /// FPM models; empty = build Figure-5 profiles from the platform.
  std::vector<device::SpeedFunction> fpm_models;
  partition::FpmOptions fpm_options;

  /// Non-empty: skip Step 1 and use these per-rank areas directly (must sum
  /// to n*n). Lets sweeps partition once and reuse across shapes.
  std::vector<std::int64_t> preset_areas;

  /// preset_spec.n > 0: skip shape construction entirely and execute this
  /// layout (any partitioner's output — NRRP, column-based, hand-built).
  /// `shape` is ignored; the spec's n must equal `n`.
  partition::PartitionSpec preset_spec;

  std::int64_t granularity = 1;  ///< block size r for shape dimensions
  SummaGenOptions summagen_options;  ///< e.g. panelled broadcasts

  bool numeric = false;        ///< real data + verification (small n only)
  bool record_events = false;  ///< event log + energy accounting
  bool contended = true;       ///< paper methodology: co-loaded profiles
  std::uint64_t seed = 42;     ///< matrix initialisation (numeric plane)
  /// Numeric DGEMM kernel. `kernel.threads` == 0 (default) sizes the shared
  /// compute pool to hardware_concurrency() minus the rank threads; a
  /// positive value overrides the pool size (clamped to the hardware).
  /// Under an active RuntimeContext the context owns the pool and per-job
  /// pool sizing — including this override — is ignored.
  blas::GemmOptions kernel;

  /// Caller-asserted plan identity for cross-job reuse (0 = none, the
  /// default). With an active RuntimeContext, jobs passing equal non-zero
  /// keys promise identical plan-relevant configuration (platform, n,
  /// shape, regime, speeds/models, granularity, preset fields) and share
  /// one cached partition + areas instead of re-running Steps 1-2. Ignored
  /// without an active context.
  std::uint64_t plan_cache_key = 0;

  /// Run-to-run measurement noise: lognormal sigma applied to every local
  /// kernel's compute time, seeded per (noise_seed, rank). 0 = the default
  /// deterministic model. Vary noise_seed across repetitions to drive the
  /// Student-t measurement methodology of the paper's Section VI.
  double noise_sigma = 0.0;
  std::uint64_t noise_seed = 1;

  /// Fault injection plan (DESIGN.md "Fault model"). Empty = the exact
  /// fault-free execution path: results and virtual timing are bit-identical
  /// to a build without fault support. Non-empty: the runner becomes fault
  /// tolerant — on a rank crash or slowdown the survivors shrink, the
  /// unfinished area is re-partitioned over them (CPM/FPM weights, degraded
  /// ranks at reduced speed), and only the lost work is re-executed.
  sgmpi::FaultPlan faults;
  double fault_detect_s = 0.05;  ///< modeled failure-detection latency

  /// Time-varying device-speed profile (DESIGN.md §5.13). Empty = the exact
  /// static model. Non-empty: each rank's modeled compute time is scaled by
  /// device::drift_factor at every quantum's start — fully deterministic in
  /// virtual time, numeric kernels unaffected.
  device::DriftPlan drift;

  /// Execution engine (DESIGN.md §5.14): kThread = one OS thread per rank
  /// (default), kModeled = cooperative fibers on one scheduler thread —
  /// results and virtual times bit-identical, p=1024–4096 becomes cheap.
  sgmpi::Engine engine = sgmpi::Engine::kThread;
  /// Stack reservation per modeled rank; 0 = the 1 MiB default.
  std::size_t fiber_stack_bytes = 0;
  /// Broadcast algorithm priced into collective costs; kTree (the
  /// historical binomial tree) keeps virtual times bit-identical.
  trace::BcastAlgo bcast_algo = trace::BcastAlgo::kTree;
  /// Two-level topology-aware collective pricing (off = historical flat).
  bool two_level_collectives = false;

  /// Online drift detection and mid-run re-partitioning. Disabled (default)
  /// = a drifting run limps along under the static plan. Enabled: every
  /// rank runs a DriftController over its per-step observed/predicted
  /// ratios; a confirmed drift sheds the victim's remaining compute,
  /// surfaces as a kDrift event at the commit gate, and the run re-partitions
  /// the unfinished cells over live-measured speeds (bounded by
  /// repartition.max_repartitions, warmup backoff per round).
  RepartitionOptions repartition;
};

/// One drift-triggered mid-run re-partition (repartition.enabled runs).
struct RepartitionEvent {
  int epoch = 0;               ///< partition epoch entered (1 = first)
  double trigger_vtime = 0.0;  ///< virtual time the detector confirmed
  int trigger_rank = -1;       ///< earliest confirming rank of the round
  /// Live-measured relative speeds the new partition was derived from, per
  /// surviving member (static weight / the confirming step's
  /// observed-over-predicted ratio).
  std::vector<double> measured_speeds;
  std::int64_t redone_cells = 0;  ///< unfinished cells that changed owner
  std::int64_t redone_area = 0;   ///< area of those cells (elements)
  RepartitionFamily family = RepartitionFamily::kGrid;  ///< chosen layout
};

/// Everything measured in one execution.
struct ExperimentResult {
  partition::PartitionSpec spec;
  std::vector<std::int64_t> areas;  ///< requested per-rank areas

  double exec_time_s = 0.0;  ///< parallel execution time (max over ranks)
  double comp_time_s = 0.0;  ///< max per-rank computation time (Fig 6b/7b)
  double comm_time_s = 0.0;  ///< max per-rank MPI time (Fig 6c/7c)
  double tflops = 0.0;       ///< 2 n^3 / exec_time / 1e12

  std::vector<RankReport> reports;       ///< per rank
  std::vector<double> rank_exec_s;       ///< per-rank completion times
  std::vector<double> rank_comp_s;
  std::vector<double> rank_comm_s;
  std::vector<double> rank_idle_s;
  /// Per-rank broadcast cost hidden behind compute by the dataflow
  /// scheduler (all zero under Scheduler::kEager).
  std::vector<double> rank_hidden_s;
  double hidden_comm_time_s = 0.0;  ///< max over ranks — the overlap win

  std::int64_t total_half_perimeter = 0;  ///< theory comm-volume metric

  bool has_energy = false;
  energy::EnergyBreakdown energy;
  std::vector<trace::Event> events;  ///< full trace (record_events only)

  bool verified = false;        ///< numeric plane: C matched the reference
  double max_abs_error = 0.0;   ///< numeric plane: worst |C - C_ref|
  double tolerance = 0.0;       ///< numeric plane: bound on max_abs_error

  /// Data-plane allocation/copy accounting over the execution window:
  /// per-rank local stores, broadcasts, compute workspaces and the C
  /// gather. Excludes building the global inputs and the serial
  /// verification reference. Counter fields are this job's events,
  /// attributed via a per-job StatsSink riding the pool's task token (so
  /// overlapping service jobs never bill each other's work); pool
  /// residency fields are process-wide absolutes at run end.
  util::DataPlaneStats alloc;

  /// True when the partition + areas came from the RuntimeContext plan
  /// cache instead of being recomputed (plan_cache_key runs only).
  bool plan_cache_hit = false;

  // --- Fault-tolerance accounting (all zero without a fault plan) ---
  int recoveries = 0;  ///< shrink-and-repartition rounds executed
  /// Virtual time from the first interrupting fault's trigger to its first
  /// detection by a survivor.
  double detection_latency_s = 0.0;
  /// Total virtual time spent between fault triggers and the survivors'
  /// agreement (shrink) that handled them.
  double recovery_vtime_s = 0.0;
  /// Unfinished C area (elements) that changed owner during recoveries.
  std::int64_t redistributed_area = 0;
  std::vector<sgmpi::FaultRecord> fault_records;  ///< per injected event

  /// Drift-triggered re-partitions, in occurrence order (empty unless
  /// config.repartition.enabled and a drift was confirmed).
  std::vector<RepartitionEvent> repartitions;
};

/// Runs one PMM. Throws on configuration errors (shape/processor-count
/// mismatch, numeric plane at absurd n, ...).
///
/// Standalone (no active RuntimeContext): sizes the shared pool per call,
/// exactly the historical behaviour. Under an active RuntimeContext the
/// pool is left alone (the context sized it) and, when plan_cache_key is
/// set, the plan phase is served from the context's plan cache.
ExperimentResult run_pmm(const ExperimentConfig& config);

/// The plan phase of run_pmm, reusable across jobs: validates the config's
/// plan inputs and produces the partition spec + per-rank areas (Steps 1-2
/// of the paper's pipeline — preset areas/spec honoured exactly as in
/// run_pmm). Pure function of the config; run_pmm calls it (directly or
/// through the RuntimeContext plan cache) so split and monolithic
/// executions are bit-identical.
JobPlan plan_pmm(const ExperimentConfig& config);

/// Step 1 of Section V for this config: the per-rank areas.
std::vector<std::int64_t> compute_areas(const ExperimentConfig& config);

/// Figure-5 profiles of the platform suitable for partitioning problems of
/// size up to n (sampled up to the largest zone edge).
std::vector<device::SpeedFunction> default_fpm_models(
    const device::Platform& platform, std::int64_t n,
    device::Interpolation interp = device::Interpolation::kPiecewiseLinear);

/// The CPM speeds the paper reads off Figure 5 for its constant range —
/// derived from the platform's contended profiles.
std::vector<double> default_cpm_speeds(const device::Platform& platform);

}  // namespace summagen::core

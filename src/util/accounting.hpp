// Process-wide data-plane allocation and copy accounting.
//
// The zero-copy refactor (strided MatrixView + pooled workspaces) is only a
// win if it is measurable: these counters record every heap allocation made
// for matrix payloads (owning Matrix buffers, transient workspaces, pool
// misses), every copy_matrix invocation, and the BufferPool's hit/resident
// behaviour. The experiment runner snapshots them around a run and reports
// the delta; `micro_dgemm --json` exports them as benchmark counters.
//
// All counters are relaxed atomics: they are statistics, not
// synchronisation, and the hot paths only pay an uncontended atomic add.
//
// Per-job scoping: process-wide snapshot deltas misattribute events when
// experiments overlap (the multi-tenant service runs many jobs over the
// shared runtime at once), so every record_* call additionally credits the
// StatsSink installed on the recording thread, if any. The sink travels
// with the work: the thread that runs a job's rank fibers installs its
// job's sink for the run, and sgpool tasks inherit the submitting thread's
// sink (the pool propagates the thread-local task token from submit to
// execution), so a DGEMM band running on a stolen worker still bills the
// right job.
#pragma once

#include <atomic>
#include <cstdint>

namespace summagen::util {

/// Cumulative process-wide data-plane counters (monotone except
/// pool_resident_bytes, which tracks the live pooled footprint).
struct DataPlaneStats {
  std::int64_t allocs = 0;       ///< heap allocations for matrix payloads
  std::int64_t alloc_bytes = 0;  ///< bytes of those allocations
  std::int64_t copy_calls = 0;   ///< copy_matrix invocations
  std::int64_t copy_bytes = 0;   ///< bytes moved by copy_matrix
  std::int64_t pool_acquires = 0;  ///< BufferPool::acquire calls
  std::int64_t pool_hits = 0;      ///< acquires served from a freelist
  std::int64_t pool_resident_bytes = 0;  ///< pooled bytes currently alive
  std::int64_t pool_peak_resident_bytes = 0;  ///< high-water mark of above
  /// Always 0: kept for readers of the retired B-pack cache's counters
  /// (every dgemm now packs its own B blocks).
  std::int64_t pack_lookups = 0;
  std::int64_t pack_hits = 0;
  std::int64_t sched_lookups = 0;  ///< shared plan/task-graph cache lookups
  std::int64_t sched_hits = 0;     ///< lookups served by a cached schedule
  std::int64_t fastmm_leases = 0;  ///< fast-MM temporary buffers leased
  std::int64_t fastmm_bytes = 0;   ///< bytes of those leases (S/T/M buffers)

  /// Fraction of pool acquires served without a heap allocation.
  double pool_hit_rate() const {
    return pool_acquires == 0
               ? 0.0
               : static_cast<double>(pool_hits) /
                     static_cast<double>(pool_acquires);
  }

  /// Fraction of schedule-cache lookups served by a cached plan/graph.
  double sched_hit_rate() const {
    return sched_lookups == 0
               ? 0.0
               : static_cast<double>(sched_hits) /
                     static_cast<double>(sched_lookups);
  }

  /// Counter-wise difference (peaks and residency keep this snapshot's
  /// absolute values — a peak is not meaningful as a delta).
  DataPlaneStats since(const DataPlaneStats& base) const;
};

/// Snapshot of the process-wide counters.
DataPlaneStats data_plane_stats();

/// Per-job accumulator of the same event counters. Install one on a thread
/// with ScopedStatsSink and every record_* from that thread — and from any
/// sgpool task it submits — credits the sink on top of the process-wide
/// counters. Thread-safe (relaxed atomics, like the globals).
class StatsSink {
 public:
  StatsSink() = default;
  StatsSink(const StatsSink&) = delete;
  StatsSink& operator=(const StatsSink&) = delete;

  /// The events credited to this sink so far. The pool-residency fields are
  /// process-wide absolutes by definition and are always 0 here; callers
  /// wanting them combine this snapshot with data_plane_stats().
  DataPlaneStats snapshot() const;

  /// Adds `d`'s counter fields (not residency) to this sink — used when a
  /// helper measured a sub-phase separately.
  void add(const DataPlaneStats& d);

 private:
  friend void record_alloc(std::int64_t);
  friend void record_copy(std::int64_t);
  friend void record_pool_acquire(bool);
  friend void record_sched_lookup(bool);
  friend void record_fastmm_lease(std::int64_t);

  std::atomic<std::int64_t> allocs_{0};
  std::atomic<std::int64_t> alloc_bytes_{0};
  std::atomic<std::int64_t> copy_calls_{0};
  std::atomic<std::int64_t> copy_bytes_{0};
  std::atomic<std::int64_t> pool_acquires_{0};
  std::atomic<std::int64_t> pool_hits_{0};
  std::atomic<std::int64_t> sched_lookups_{0};
  std::atomic<std::int64_t> sched_hits_{0};
  std::atomic<std::int64_t> fastmm_leases_{0};
  std::atomic<std::int64_t> fastmm_bytes_{0};
};

/// The sink installed on the calling thread (nullptr when none).
StatsSink* current_stats_sink();

/// RAII install of `sink` as the calling thread's sink; restores the
/// previous sink on destruction. Passing nullptr suspends attribution for
/// the scope (e.g. around a verification reference that is measurement
/// harness, not data plane).
class ScopedStatsSink {
 public:
  explicit ScopedStatsSink(StatsSink* sink);
  ~ScopedStatsSink();
  ScopedStatsSink(const ScopedStatsSink&) = delete;
  ScopedStatsSink& operator=(const ScopedStatsSink&) = delete;

 private:
  void* prev_;
};

/// Records one heap allocation of `bytes` for matrix payload data. Called
/// by the Matrix constructor and by BufferPool misses; transient workspace
/// paths not yet routed through the pool call it directly.
void record_alloc(std::int64_t bytes);

/// Records one copy_matrix of `bytes`.
void record_copy(std::int64_t bytes);

/// Records one BufferPool::acquire (`hit` = served from a freelist).
void record_pool_acquire(bool hit);

/// Records one shared-schedule cache lookup (`hit` = reused a cached
/// ExecutionPlan + TaskGraph instead of rebuilding them).
void record_sched_lookup(bool hit);

/// Records one fast-MM temporary lease of `bytes` (the S/T linear-
/// combination and M quadrant-product workspaces of src/blas/fastmm.cpp).
/// The lease still goes through the BufferPool — this counter exists so
/// fast-MM workspace traffic is visible separately from generic pool hits
/// and the ~0-alloc warm-run gate can cover --fastmm runs.
void record_fastmm_lease(std::int64_t bytes);

/// Adjusts the live pooled footprint by `delta` bytes (positive on a fresh
/// pool allocation, negative when the pool releases memory) and maintains
/// the peak.
void record_pool_resident_delta(std::int64_t delta);

}  // namespace summagen::util

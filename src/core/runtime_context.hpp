// RuntimeContext — explicit ownership of the process-wide execution state a
// stream of PMM jobs shares.
//
// Historically run_pmm implicitly owned that state: every call resized the
// sgpool compute pool (a quiescent-only operation whose hooks also drop the
// SharedSchedule cache), so two concurrent callers raced on the pool and
// wiped each other's caches, and nothing could reuse partitions across
// calls. A RuntimeContext makes the ownership explicit for multi-job
// execution (src/service):
//
//   * the pool is sized once, when the context activates (a genuine
//     quiescent point); jobs never reconfigure it;
//   * the SharedSchedule cache survives across jobs — its quiescent trim
//     only fires at context activation — so identical back-to-back jobs
//     reuse cached plan/task graphs;
//   * a plan cache keyed by caller-asserted job signatures lets identical
//     jobs share one partition + per-rank areas (the expensive Step-1/2
//     work of the paper's pipeline).
//
// The context caches plans and schedules only. Every dgemm packs its own B
// blocks, so no packed panel or other pooled scratch outlives the job that
// leased it.
//
// Exactly one context can be active at a time; run_pmm picks it up via
// RuntimeContext::current(). With no active context run_pmm behaves exactly
// as before (per-call pool sizing, caches trimmed per run) — single-job
// numerics and virtual times are bit-identical to the pre-context runner.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/partition/spec.hpp"

namespace summagen::core {

/// The reusable output of the runner's plan phase: Step 1 (per-rank areas)
/// and Step 2 (shape construction) of the paper's pipeline, everything a
/// job needs before touching the sgmpi runtime.
struct JobPlan {
  partition::PartitionSpec spec;
  std::vector<std::int64_t> areas;  ///< requested per-rank areas
};

class RuntimeContext {
 public:
  struct Options {
    /// Rank threads to reserve alongside the pool workers (the service's
    /// executor slots x ranks per job for the thread engine; slots for the
    /// modeled engine). Negative = keep the current reservation.
    int reserved_threads = -1;
    /// Shared compute-pool size; 0 = recommended_size for the reservation.
    int pool_threads = 0;
    /// Plan-cache entries kept (LRU beyond this).
    std::size_t plan_cache_capacity = 64;
  };

  struct PlanCacheStats {
    std::int64_t lookups = 0;
    std::int64_t hits = 0;
    std::int64_t entries = 0;  ///< currently cached plans
  };

  /// Activates this context (throws std::logic_error if another is active)
  /// and sizes the shared pool once — the activation is the quiescent
  /// point at which the per-run caches of earlier standalone runs drop.
  RuntimeContext();  ///< default Options
  explicit RuntimeContext(const Options& options);
  ~RuntimeContext();
  RuntimeContext(const RuntimeContext&) = delete;
  RuntimeContext& operator=(const RuntimeContext&) = delete;

  /// The active context, or nullptr (standalone run_pmm behaviour).
  static RuntimeContext* current();

  /// The cached plan for `key`, building (and caching) it via `build` on a
  /// miss. Key identity is caller-asserted: callers passing equal keys
  /// promise identical plan-relevant configuration.
  /// `hit` (optional) reports whether the plan was served from cache.
  /// Concurrent same-key callers may both build; one result wins the cache
  /// (build is deterministic, so the copies are identical).
  std::shared_ptr<const JobPlan> plan_for(
      std::uint64_t key, const std::function<JobPlan()>& build,
      bool* hit = nullptr);

  PlanCacheStats plan_cache_stats() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  /// LRU: most-recently-used at the front; the map stores list iterators.
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const JobPlan> plan;
  };
  std::list<Entry> lru_;                 ///< guarded by mu_
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::int64_t lookups_ = 0;  ///< guarded by mu_
  std::int64_t hits_ = 0;     ///< guarded by mu_
};

}  // namespace summagen::core

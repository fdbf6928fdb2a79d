// PmmService: the threaded frontend of the multi-tenant job service
// (DESIGN.md §5.15) — real executions with wall-clock latencies, where the
// simulator (simulator.hpp) is the virtual-clock twin for benchmarking.
//
// One PmmService owns one core::RuntimeContext (shared pool, plan cache,
// schedule cache) and a fixed set of executor threads draining a JobQueue
// under DWRR fairness. submit() returns a future; jobs shed at admission
// resolve immediately with JobStatus::kShed. Batchable jobs (equal
// non-zero signatures) coalesce into one run_pmm whose result is delivered
// to every member, and their signature doubles as the plan_cache_key, so a
// stream of identical jobs re-plans exactly once. Each job packs its own
// B panels; no pooled buffer outlives the job that leased it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/runner.hpp"
#include "src/service/queue.hpp"

namespace summagen::service {

class PmmService {
 public:
  struct Options {
    /// Executor threads. Each dispatched job runs a full run_pmm on its
    /// executor, every rank a fiber on that thread, so size
    /// `runtime.reserved_threads` for the executor count when
    /// oversubscription matters.
    int executors = 2;
    JobQueue::Options queue;
    core::RuntimeContext::Options runtime;
    /// Folded into every job_signature — set when mixing configs whose
    /// identity the signature does not hash (distinct platforms, custom
    /// FPM models); see job_signature's contract.
    std::uint64_t signature_salt = 0;
    /// Use each batchable job's signature as its plan_cache_key for
    /// cross-job plan reuse. Off = every job re-plans.
    bool reuse_plans = true;
  };

  struct Counters {
    std::int64_t submitted = 0;
    std::int64_t shed = 0;
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    std::int64_t batches = 0;       ///< executions dispatched
    std::int64_t batched_jobs = 0;  ///< jobs that shared an execution
  };

  /// Starts the executors. Throws std::logic_error if another
  /// RuntimeContext is already active in the process (the context is the
  /// exclusive pool owner).
  PmmService();  ///< default Options
  explicit PmmService(const Options& options);

  /// Drains every admitted job, then stops the executors.
  ~PmmService();

  PmmService(const PmmService&) = delete;
  PmmService& operator=(const PmmService&) = delete;

  /// Sets a tenant's DWRR weight (default 1; may be called any time).
  void set_tenant_weight(const std::string& tenant, double weight);

  /// Submits one job. Always returns a valid future: kShed immediately
  /// when admission refuses, otherwise kCompleted/kFailed after execution.
  std::future<JobResult> submit(const std::string& tenant,
                                const core::ExperimentConfig& config);

  /// Blocks until every admitted job has completed (the queue is empty and
  /// all executors idle). New submissions during a drain may extend it.
  void drain();

  Counters counters() const;
  JobQueue::TenantStats tenant_stats(const std::string& tenant) const;

  /// The shared runtime (plan-cache stats, epoch bumps, ...).
  core::RuntimeContext& runtime() { return runtime_; }

 private:
  struct Pending;

  void executor_loop();
  void execute_batch(std::vector<Job> batch);

  Options options_;
  core::RuntimeContext runtime_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< queue non-empty or stopping
  std::condition_variable drain_cv_;  ///< queue empty and executors idle
  JobQueue queue_;
  /// Promise + clock bookkeeping per queued job, keyed by job id (batching
  /// pulls jobs from arbitrary queue positions, so no FIFO container fits).
  std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> pending_;
  std::uint64_t next_id_ = 1;
  int active_ = 0;  ///< executors currently running a batch
  bool stopping_ = false;
  Counters counters_;

  std::vector<std::thread> executors_;
};

}  // namespace summagen::service

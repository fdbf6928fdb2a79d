// Job model of the multi-tenant PMM service (DESIGN.md §5.15).
//
// A job is one PMM request — an ExperimentConfig plus the tenant it bills
// to. The service layers above (JobQueue, ServiceSimulator, PmmService)
// schedule jobs by tenant-weighted fair queueing, shed them under
// overload, and coalesce identical jobs into one shared execution; this
// header defines the shared vocabulary: the job record, its lifecycle
// outcome, and the signature that decides "identical".
#pragma once

#include <cstdint>
#include <string>

#include "src/core/runner.hpp"

namespace summagen::service {

/// What happened to a submitted job.
enum class JobStatus {
  kCompleted,  ///< executed (possibly as part of a shared batch)
  kShed,       ///< refused at admission (queue full) — never executed
  kFailed,     ///< execution threw (configuration error, ...)
};

const char* to_string(JobStatus status);

/// One queued PMM request.
struct Job {
  std::uint64_t id = 0;  ///< service-assigned, unique per submission
  std::string tenant;
  core::ExperimentConfig config;
  /// Batching/plan identity of `config` (job_signature); 0 = unbatchable.
  std::uint64_t signature = 0;
  /// Abstract service cost used for fair-share accounting (n^3 based).
  double cost_units = 0.0;
  /// Submission time on the service's clock (virtual in the simulator,
  /// wall seconds in PmmService).
  double submit_time_s = 0.0;
};

/// Scheduling cost of one job in abstract service units: n^3 / 2^30 — the
/// classical-complexity work of the multiplication, scaled so paper-sized
/// problems land in single digits. Deliberately model-free: fairness is
/// about *requested* work, and pricing it identically for every tenant
/// keeps the deficit accounting interpretable.
double job_cost_units(const core::ExperimentConfig& config);

/// Batching/plan-reuse identity of a config, or 0 when the config must
/// never share an execution (fault plans, drift plans, online
/// re-partitioning, measurement noise — anything whose execution is more
/// than a pure function of the fields folded in below).
///
/// Two configs with equal non-zero signatures execute identically: the
/// signature folds in n, shape, regime, granularity, preset areas/spec
/// layout, CPM speed bits, engine, scheduler and its options, the numeric
/// flag and fill seed, the kernel, SIMD tier and fast-MM options, the
/// collective pricing options, and the platform's processor count. It
/// does NOT hash full platform or FPM-model contents — the identity is
/// caller-asserted, so a caller mixing distinct platforms or custom models
/// in one service must make them distinguishable via `salt` (e.g. an index
/// per platform).
std::uint64_t job_signature(const core::ExperimentConfig& config,
                            std::uint64_t salt = 0);

/// Delivery record for one job.
struct JobResult {
  std::uint64_t id = 0;
  std::string tenant;
  JobStatus status = JobStatus::kShed;
  core::ExperimentResult result;  ///< valid when kCompleted
  std::string error;              ///< what() when kFailed
  double queue_wait_s = 0.0;      ///< admission -> dispatch
  double service_s = 0.0;         ///< dispatch -> completion
  double latency_s = 0.0;         ///< admission -> completion (0 when shed)
  /// Jobs sharing this execution (1 = ran alone). The shared result is
  /// delivered to every member; cost accounting split the units evenly.
  int batch_size = 1;
};

}  // namespace summagen::service

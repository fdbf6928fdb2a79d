// Deterministic discrete-event simulator of the multi-tenant PMM service
// (DESIGN.md §5.15): open-loop Poisson arrivals over a virtual clock,
// bounded executor slots draining a JobQueue, and a pluggable service-time
// model — the default prices each distinct job signature with one
// modeled-plane run_pmm (virtual exec_time_s), memoized.
//
// Everything is virtual time from seeded pseudo-randomness, so a scenario's
// latency percentiles, shed fractions, and per-tenant service shares are
// bit-identical across runs and machines: bench/service_load emits them as
// Google-Benchmark counters and CI gates them at tight (1.05x) ratios —
// the same trick the modeled communication plane plays for paper-scale N.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/service/queue.hpp"

namespace summagen::service {

/// One entry of a tenant's workload mix.
struct JobTemplate {
  core::ExperimentConfig config;
  double mix_weight = 1.0;  ///< relative pick probability within the tenant
};

struct TenantProfile {
  std::string name;
  double weight = 1.0;         ///< fair-share weight (JobQueue DWRR)
  double arrival_share = 1.0;  ///< share of the open-loop arrival stream
  std::vector<JobTemplate> jobs;
};

struct ScenarioOptions {
  /// Open-loop (arrivals never wait for completions — the overload-honest
  /// methodology) Poisson arrival rate, jobs per virtual second.
  double arrival_rate_per_s = 10.0;
  /// Arrival window: jobs arrive in [0, duration_s); the simulation then
  /// drains everything already admitted.
  double duration_s = 60.0;
  int executors = 2;          ///< concurrent service slots
  std::uint64_t seed = 1;     ///< arrival process + workload mix draws
  JobQueue::Options queue;    ///< admission/fairness/batching knobs
  std::vector<TenantProfile> tenants;
};

/// Nearest-rank percentiles over completed-job latencies.
struct LatencyStats {
  std::int64_t count = 0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

/// Computes LatencyStats from a sample set (sorts a copy; empty -> zeros).
LatencyStats latency_stats(std::vector<double> latencies);

struct TenantReport {
  std::string name;
  JobQueue::TenantStats queue;  ///< admission + DWRR accounting
  std::int64_t completed = 0;
  LatencyStats latency;
};

struct ScenarioReport {
  double makespan_s = 0.0;  ///< last completion (>= duration_s under load)
  std::int64_t submitted = 0;
  std::int64_t shed = 0;
  std::int64_t completed = 0;
  double shed_fraction = 0.0;  ///< shed / submitted
  /// Completions per virtual second of makespan — the figure that must not
  /// collapse under overload (admission control's whole job).
  double throughput_jobs_per_s = 0.0;
  double offered_jobs_per_s = 0.0;  ///< submitted / duration_s
  LatencyStats latency;             ///< over all completed jobs
  std::vector<TenantReport> tenants;
  std::int64_t batches = 0;       ///< executions dispatched
  std::int64_t batched_jobs = 0;  ///< jobs that shared an execution
};

/// Virtual service seconds one execution of `config` takes.
using ServiceModel =
    std::function<double(const core::ExperimentConfig& config)>;

/// The default model: one modeled-plane run_pmm per distinct non-zero job
/// signature (forced numeric=false, no event recording),
/// returning the deterministic virtual exec_time_s; results are memoized
/// by signature so a 10^4-job scenario prices each distinct config once.
/// Call under an active RuntimeContext to share the priced plans and
/// schedules with everything else in the process.
ServiceModel modeled_service_time();

/// Runs one scenario to completion on the virtual clock. Deterministic:
/// equal options + an equal (deterministic) model give a bit-identical
/// report. Throws std::invalid_argument on an ill-formed scenario (no
/// tenants, a tenant without templates, non-positive rate/executors).
ScenarioReport simulate(const ScenarioOptions& options,
                        const ServiceModel& model);

}  // namespace summagen::service

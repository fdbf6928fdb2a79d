#include "src/service/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <stdexcept>
#include <utility>

namespace summagen::service {
namespace {

/// Uniform (0, 1] from the top 53 bits of one mt19937_64 draw. The
/// engine's output sequence is fixed by the C++ standard and the mapping
/// uses only exact dyadic arithmetic, so draws are bit-identical across
/// platforms — std::uniform_real_distribution / std::exponential_
/// distribution give no such guarantee, hence the hand-rolled transforms.
double uniform_open(std::mt19937_64& rng) {
  return (static_cast<double>(rng() >> 11) + 1.0) *
         (1.0 / 9007199254740992.0);  // 2^-53
}

/// Inverse-CDF exponential inter-arrival gap (a Poisson arrival process).
double exp_gap(std::mt19937_64& rng, double rate) {
  return -std::log(uniform_open(rng)) / rate;
}

/// Weighted index pick: r in [0, sum(weights)) walks the prefix sums.
std::size_t pick_weighted(std::mt19937_64& rng,
                          const std::vector<double>& weights, double total) {
  double r = (uniform_open(rng) - (1.0 / 9007199254740992.0)) * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (r < weights[i]) {
      return i;
    }
    r -= weights[i];
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

struct Completion {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< dispatch order — deterministic tie-break
  double start = 0.0;
  double service_s = 0.0;
  std::vector<Job> batch;
};

struct CompletionLater {
  bool operator()(const Completion& a, const Completion& b) const {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.seq > b.seq;
  }
};

}  // namespace

LatencyStats latency_stats(std::vector<double> latencies) {
  LatencyStats stats;
  stats.count = static_cast<std::int64_t>(latencies.size());
  if (latencies.empty()) {
    return stats;
  }
  std::sort(latencies.begin(), latencies.end());
  double sum = 0.0;
  for (double v : latencies) {
    sum += v;
  }
  stats.mean_s = sum / static_cast<double>(latencies.size());
  stats.max_s = latencies.back();
  const auto nearest_rank = [&latencies](double pct) {
    const double n = static_cast<double>(latencies.size());
    const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    return latencies[std::min(latencies.size() - 1,
                              rank == 0 ? 0 : rank - 1)];
  };
  stats.p50_s = nearest_rank(50.0);
  stats.p95_s = nearest_rank(95.0);
  stats.p99_s = nearest_rank(99.0);
  return stats;
}

ServiceModel modeled_service_time() {
  auto memo = std::make_shared<std::map<std::uint64_t, double>>();
  return [memo](const core::ExperimentConfig& config) {
    const std::uint64_t sig = job_signature(config);
    if (sig != 0) {
      const auto it = memo->find(sig);
      if (it != memo->end()) {
        return it->second;
      }
    }
    core::ExperimentConfig priced = config;
    priced.numeric = false;
    priced.record_events = false;
    const double seconds = core::run_pmm(priced).exec_time_s;
    if (sig != 0) {
      (*memo)[sig] = seconds;
    }
    return seconds;
  };
}

ScenarioReport simulate(const ScenarioOptions& options,
                        const ServiceModel& model) {
  if (options.tenants.empty()) {
    throw std::invalid_argument("simulate: scenario needs >= 1 tenant");
  }
  for (const TenantProfile& t : options.tenants) {
    if (t.jobs.empty()) {
      throw std::invalid_argument("simulate: tenant '" + t.name +
                                  "' has no job templates");
    }
  }
  if (!(options.arrival_rate_per_s > 0.0) || !(options.duration_s > 0.0)) {
    throw std::invalid_argument(
        "simulate: arrival rate and duration must be > 0");
  }
  if (options.executors < 1) {
    throw std::invalid_argument("simulate: executors must be >= 1");
  }
  if (!model) {
    throw std::invalid_argument("simulate: null service model");
  }

  JobQueue queue(options.queue);
  std::vector<double> tenant_shares;
  double share_total = 0.0;
  for (const TenantProfile& t : options.tenants) {
    queue.set_tenant_weight(t.name, t.weight);
    tenant_shares.push_back(t.arrival_share);
    share_total += t.arrival_share;
  }
  if (!(share_total > 0.0)) {
    throw std::invalid_argument("simulate: arrival shares sum to zero");
  }

  // Open-loop arrival schedule, fully materialised up front: the arrival
  // process never reacts to service state, which is what makes overload
  // measurements honest (a closed loop self-throttles and hides collapse).
  std::mt19937_64 rng(options.seed);
  std::vector<Job> arrivals;
  std::uint64_t next_id = 1;
  for (double t = exp_gap(rng, options.arrival_rate_per_s);
       t < options.duration_s; t += exp_gap(rng, options.arrival_rate_per_s)) {
    const std::size_t ti = pick_weighted(rng, tenant_shares, share_total);
    const TenantProfile& tenant = options.tenants[ti];
    std::vector<double> mix;
    double mix_total = 0.0;
    for (const JobTemplate& jt : tenant.jobs) {
      mix.push_back(jt.mix_weight);
      mix_total += jt.mix_weight;
    }
    const std::size_t ji =
        mix_total > 0.0 ? pick_weighted(rng, mix, mix_total) : 0;
    Job job;
    job.id = next_id++;
    job.tenant = tenant.name;
    job.config = tenant.jobs[ji].config;
    job.signature = job_signature(job.config);
    job.cost_units = job_cost_units(job.config);
    job.submit_time_s = t;
    arrivals.push_back(std::move(job));
  }

  // Discrete-event loop: two event sources (arrivals in time order,
  // completions in a min-heap), completions processed first at ties so a
  // freed slot can serve work arriving at the same instant.
  std::priority_queue<Completion, std::vector<Completion>, CompletionLater>
      completions;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int idle = options.executors;
  std::uint64_t dispatch_seq = 0;
  double now = 0.0;
  double makespan = 0.0;

  std::vector<double> all_latencies;
  std::map<std::string, std::vector<double>> tenant_latencies;
  std::map<std::string, std::int64_t> tenant_completed;

  const auto dispatch = [&] {
    while (idle > 0 && !queue.empty()) {
      Completion c;
      c.batch = queue.next_batch();
      c.start = now;
      c.service_s = model(c.batch.front().config);
      c.time = now + c.service_s;
      c.seq = dispatch_seq++;
      completions.push(std::move(c));
      --idle;
    }
  };

  std::size_t ai = 0;
  while (ai < arrivals.size() || !completions.empty()) {
    const double ta = ai < arrivals.size() ? arrivals[ai].submit_time_s : kInf;
    const double tc = !completions.empty() ? completions.top().time : kInf;
    if (tc <= ta) {
      Completion c = completions.top();
      completions.pop();
      now = c.time;
      makespan = std::max(makespan, now);
      ++idle;
      for (const Job& job : c.batch) {
        all_latencies.push_back(now - job.submit_time_s);
        tenant_latencies[job.tenant].push_back(now - job.submit_time_s);
        ++tenant_completed[job.tenant];
      }
    } else {
      now = ta;
      queue.submit(std::move(arrivals[ai]));
      ++ai;
    }
    dispatch();
  }

  ScenarioReport report;
  report.makespan_s = std::max(makespan, options.duration_s);
  report.latency = latency_stats(all_latencies);
  report.completed = report.latency.count;
  report.batches = queue.batches();
  report.batched_jobs = queue.batched_jobs();
  for (const TenantProfile& t : options.tenants) {
    TenantReport tr;
    tr.name = t.name;
    tr.queue = queue.tenant_stats(t.name);
    tr.completed = tenant_completed[t.name];
    tr.latency = latency_stats(tenant_latencies[t.name]);
    report.submitted += tr.queue.submitted;
    report.shed += tr.queue.shed;
    report.tenants.push_back(std::move(tr));
  }
  report.shed_fraction =
      report.submitted > 0
          ? static_cast<double>(report.shed) /
                static_cast<double>(report.submitted)
          : 0.0;
  report.throughput_jobs_per_s =
      report.makespan_s > 0.0
          ? static_cast<double>(report.completed) / report.makespan_s
          : 0.0;
  report.offered_jobs_per_s =
      static_cast<double>(report.submitted) / options.duration_s;
  return report;
}

}  // namespace summagen::service

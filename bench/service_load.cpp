// Load test of the multi-tenant PMM job service (DESIGN.md §5.15) on the
// deterministic virtual clock: open-loop Poisson arrivals drain through
// the DWRR JobQueue into modeled-plane executions priced by one run_pmm
// per distinct job signature, so every latency percentile, shed fraction,
// and fairness share below is bit-identical across runs and machines —
// bench/BENCH_service.json commits them and CI gates at 1.05x.
//
// Scenarios (all sharing one RuntimeContext and one memoized price model):
//  * steady   — offered load at 50% of service capacity: nothing sheds.
//  * overload — offered load at --overload x capacity: admission control
//    sheds the excess at the door and throughput must NOT collapse (gate:
//    overload throughput >= steady throughput).
//  * fairness — two tenants with --weight-ratio DWRR weights, both
//    saturating: served work must split within --fairness-tol of the
//    weights (gate), demonstrating a flooding tenant cannot starve one
//    paying for priority.
//  * reuse    — the same job executed repeatedly with its signature as
//    plan_cache_key: the repeat must hit the RuntimeContext plan cache and
//    the shared-schedule cache, and its virtual time must be bit-identical
//    to the cold run (gates) — the cross-job reuse the shared runtime buys.
//
// Flags: --n 3072  --jobs 400  --fair-jobs 4000  --executors 2
//        --overload 2  --seed 1  --depth 48  --batch-limit 8  --quantum 4
//        --weight-ratio 10  --fairness-tol 0.15  --csv  --json FILE
//        (Google-Benchmark JSON for tools/compare_bench.py, committed
//        baseline bench/BENCH_service.json)
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/core/runner.hpp"
#include "src/service/simulator.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

using summagen::benchjson::JsonEntry;

/// CPM config on the paper platform (virtual times only).
summagen::core::ExperimentConfig job_config(std::int64_t n,
                                            summagen::partition::Shape shape,
                                            std::uint64_t seed) {
  summagen::core::ExperimentConfig config;
  config.platform = summagen::device::Platform::hclserver1();
  config.n = n;
  config.shape = shape;
  config.regime = summagen::core::Regime::kConstant;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.seed = seed;
  return config;
}

std::vector<std::pair<std::string, double>> scenario_counters(
    const summagen::service::ScenarioReport& r) {
  return {{"latency_p50_s", r.latency.p50_s},
          {"latency_p95_s", r.latency.p95_s},
          {"latency_p99_s", r.latency.p99_s},
          {"latency_mean_s", r.latency.mean_s},
          {"throughput_jobs_per_s", r.throughput_jobs_per_s},
          {"shed_fraction", r.shed_fraction},
          {"completed", static_cast<double>(r.completed)},
          {"batches", static_cast<double>(r.batches)},
          {"batched_jobs", static_cast<double>(r.batched_jobs)}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace summagen;
  const util::Cli cli(argc, argv);
  const std::int64_t n = cli.get_int("n", 3072);
  const std::int64_t jobs = cli.get_int("jobs", 400);
  const std::int64_t fair_jobs = cli.get_int("fair-jobs", 4000);
  const int executors = static_cast<int>(cli.get_int("executors", 2));
  const double overload = cli.get_double("overload", 2.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::size_t depth = static_cast<std::size_t>(cli.get_int("depth", 48));
  const std::size_t batch_limit =
      static_cast<std::size_t>(cli.get_int("batch-limit", 8));
  const double quantum = cli.get_double("quantum", 4.0);
  const double weight_ratio = cli.get_double("weight-ratio", 10.0);
  const double fairness_tol = cli.get_double("fairness-tol", 0.15);
  const bool csv = cli.get_bool("csv", false);

  // One shared runtime for every pricing run and the reuse probe: the plan
  // cache and schedule cache live here across all scenarios.
  core::RuntimeContext runtime;
  const service::ServiceModel model = service::modeled_service_time();

  // Workload mix: three shapes at two sizes. Mean service time prices the
  // offered-load scale so "2x overload" means 2x actual capacity.
  const std::vector<partition::Shape> shapes = {
      partition::Shape::kSquareCorner, partition::Shape::kSquareRectangle,
      partition::Shape::kBlockRectangle};
  std::vector<service::JobTemplate> mix;
  double mean_service_s = 0.0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    service::JobTemplate jt;
    jt.config = job_config(i == 2 ? n / 2 : n, shapes[i], /*seed=*/42);
    jt.config.plan_cache_key = service::job_signature(jt.config);
    mix.push_back(jt);
    mean_service_s += model(jt.config);
  }
  mean_service_s /= static_cast<double>(mix.size());
  const double capacity_jobs_per_s =
      static_cast<double>(executors) / mean_service_s;

  service::ScenarioOptions base;
  base.executors = executors;
  base.seed = seed;
  base.queue.max_depth = depth;
  base.queue.batch_limit = batch_limit;
  base.queue.quantum_units = quantum;
  base.tenants = {{"alpha", 1.0, 1.0, mix}, {"beta", 1.0, 1.0, mix}};

  const auto run_at = [&](double rate_scale, std::int64_t arrival_count) {
    service::ScenarioOptions opts = base;
    opts.arrival_rate_per_s = rate_scale * capacity_jobs_per_s;
    opts.duration_s =
        static_cast<double>(arrival_count) / opts.arrival_rate_per_s;
    return service::simulate(opts, model);
  };
  const auto steady = run_at(0.5, jobs);
  // Batching multiplies the effective service rate by up to batch_limit,
  // so offer overload x batch_limit x the unbatched capacity: whatever
  // batch sizes actually materialise, the offered load is at least
  // `overload` x the achievable rate and admission control must shed.
  const auto over =
      run_at(overload * static_cast<double>(batch_limit), jobs);

  // Fairness: distinct fill seeds keep the tenants' signatures disjoint
  // (cross-tenant batching would split costs and mask the shares) and
  // batching off keeps served units exactly the DWRR allocation. The
  // per-tenant depth bound is what lets gold keep entering while bronze
  // floods; without it bronze's backlog fills the global queue and gold
  // sheds at the door regardless of its weight. The window is long
  // (--fair-jobs) so the saturated steady state dominates the startup and
  // drain transients, during which served shares track admission, not
  // weights.
  service::ScenarioOptions fair = base;
  fair.queue.batch_limit = 1;
  fair.queue.max_tenant_depth = 8;
  std::vector<service::JobTemplate> gold_mix = mix;
  for (auto& jt : gold_mix) {
    jt.config.seed = 43;
    jt.config.plan_cache_key = service::job_signature(jt.config);
  }
  fair.tenants = {{"gold", weight_ratio, 1.0, gold_mix},
                  {"bronze", 1.0, 1.0, mix}};
  fair.arrival_rate_per_s = 2.0 * overload * capacity_jobs_per_s;
  fair.duration_s = static_cast<double>(fair_jobs) / fair.arrival_rate_per_s;
  const auto fairness = service::simulate(fair, model);
  const double gold_units = fairness.tenants[0].queue.service_units;
  const double bronze_units = fairness.tenants[1].queue.service_units;
  const double achieved_ratio =
      bronze_units > 0.0 ? gold_units / bronze_units : 0.0;
  const double fairness_error =
      achieved_ratio > 0.0
          ? std::abs(achieved_ratio - weight_ratio) / weight_ratio
          : 1.0;

  // Reuse probe: same config, signature as plan key — the repeat must be
  // plan-cache and schedule-cache served, at bit-identical virtual time.
  core::ExperimentConfig probe = mix.front().config;
  const auto cold = core::run_pmm(probe);
  const auto warm = core::run_pmm(probe);

  util::Table t("Service load, N=" + std::to_string(n) + ", " +
                std::to_string(executors) + " executors, capacity " +
                util::Table::num(capacity_jobs_per_s, 3) + " jobs/s");
  t.set_header({"scenario", "offered/s", "submitted", "shed", "completed",
                "p50_s", "p99_s", "tput/s"});
  const auto add_scenario = [&t](const std::string& name,
                                 const service::ScenarioReport& r) {
    t.add_row({name, util::Table::num(r.offered_jobs_per_s, 3),
               std::to_string(r.submitted), std::to_string(r.shed),
               std::to_string(r.completed), util::Table::num(r.latency.p50_s, 3),
               util::Table::num(r.latency.p99_s, 3),
               util::Table::num(r.throughput_jobs_per_s, 3)});
  };
  add_scenario("steady", steady);
  add_scenario("overload", over);
  add_scenario("fairness", fairness);
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  std::cout << "\nfairness (gold:bronze weights "
            << util::Table::num(weight_ratio, 1)
            << ":1): served units " << util::Table::num(gold_units, 1) << " : "
            << util::Table::num(bronze_units, 1) << " -> ratio "
            << util::Table::num(achieved_ratio, 2) << " (error "
            << util::Table::num(100.0 * fairness_error, 1) << "%)\n";
  std::cout << "batching: steady " << steady.batched_jobs << "/"
            << steady.completed << " jobs shared an execution, overload "
            << over.batched_jobs << "/" << over.completed << "\n";
  std::cout << "reuse: plan_cache_hit=" << (warm.plan_cache_hit ? "yes" : "no")
            << " sched=" << warm.alloc.sched_hits << "/"
            << warm.alloc.sched_lookups
            << " virtual time cold=" << cold.exec_time_s
            << " warm=" << warm.exec_time_s << "\n";

  // Gates (exit 1): the acceptance bars of the service PR.
  bool ok = true;
  if (steady.shed > 0) {
    std::cerr << "GATE: steady scenario shed " << steady.shed << " jobs\n";
    ok = false;
  }
  if (over.shed == 0) {
    std::cerr << "GATE: overload scenario shed nothing (not overloaded?)\n";
    ok = false;
  }
  if (over.throughput_jobs_per_s < steady.throughput_jobs_per_s) {
    std::cerr << "GATE: throughput collapsed under overload ("
              << over.throughput_jobs_per_s << " < "
              << steady.throughput_jobs_per_s << " jobs/s)\n";
    ok = false;
  }
  if (fairness_error > fairness_tol) {
    std::cerr << "GATE: fairness error " << 100.0 * fairness_error
              << "% exceeds " << 100.0 * fairness_tol << "%\n";
    ok = false;
  }
  if (!warm.plan_cache_hit || warm.alloc.sched_lookups == 0 ||
      warm.alloc.sched_hits != warm.alloc.sched_lookups) {
    std::cerr << "GATE: repeat run was not cache-served (plan hit="
              << warm.plan_cache_hit << ", sched " << warm.alloc.sched_hits
              << "/" << warm.alloc.sched_lookups << ")\n";
    ok = false;
  }
  if (warm.exec_time_s != cold.exec_time_s) {
    std::cerr << "GATE: cache-served repeat changed virtual time ("
              << cold.exec_time_s << " vs " << warm.exec_time_s << ")\n";
    ok = false;
  }

  if (cli.has("json")) {
    std::vector<JsonEntry> rows;
    rows.emplace_back("service/steady", steady.latency.p50_s,
                      scenario_counters(steady));
    rows.emplace_back("service/overload", over.latency.p50_s,
                      scenario_counters(over));
    auto fair_counters = scenario_counters(fairness);
    fair_counters.emplace_back("fairness_error", fairness_error);
    fair_counters.emplace_back("gold_service_units", gold_units);
    fair_counters.emplace_back("bronze_service_units", bronze_units);
    rows.emplace_back("service/fairness", fairness.latency.p50_s,
                      fair_counters);
    rows.emplace_back(
        "service/reuse", warm.exec_time_s,
        std::vector<std::pair<std::string, double>>{
            {"plan_cache_hit", warm.plan_cache_hit ? 1.0 : 0.0},
            {"sched_hit_rate", warm.alloc.sched_hit_rate()}});
    benchjson::write_json(cli.get("json", ""), "service_load", rows);
  }
  return ok ? 0 : 1;
}

// Virtual-clock service simulator: determinism, percentile math, and the
// admission-control behaviour the service bench gates on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/service/simulator.hpp"

namespace summagen::service {
namespace {

/// A scenario priced by a constant model: capacity = executors / 0.1 s.
ScenarioOptions constant_scenario(double rate, double duration) {
  ScenarioOptions options;
  options.arrival_rate_per_s = rate;
  options.duration_s = duration;
  options.executors = 2;
  options.seed = 7;
  options.queue.max_depth = 16;
  TenantProfile tenant;
  tenant.name = "t";
  JobTemplate jt;
  jt.config.n = 512;
  // Distinct signatures are irrelevant here; mark unbatchable via noise so
  // the constant model's speed isn't masked by coalescing.
  jt.config.noise_sigma = 0.5;
  tenant.jobs.push_back(jt);
  options.tenants.push_back(tenant);
  return options;
}

const ServiceModel kConstantModel = [](const core::ExperimentConfig&) {
  return 0.1;
};

TEST(LatencyStats, NearestRankPercentiles) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) {
    samples.push_back(static_cast<double>(i));
  }
  const LatencyStats stats = latency_stats(samples);
  EXPECT_EQ(stats.count, 100);
  EXPECT_DOUBLE_EQ(stats.p50_s, 50.0);
  EXPECT_DOUBLE_EQ(stats.p95_s, 95.0);
  EXPECT_DOUBLE_EQ(stats.p99_s, 99.0);
  EXPECT_DOUBLE_EQ(stats.max_s, 100.0);
  EXPECT_DOUBLE_EQ(stats.mean_s, 50.5);
}

TEST(LatencyStats, SmallAndEmptySamples) {
  EXPECT_EQ(latency_stats({}).count, 0);
  EXPECT_DOUBLE_EQ(latency_stats({}).p99_s, 0.0);
  const LatencyStats one = latency_stats({3.0});
  EXPECT_DOUBLE_EQ(one.p50_s, 3.0);
  EXPECT_DOUBLE_EQ(one.p99_s, 3.0);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const ScenarioOptions options = constant_scenario(15.0, 20.0);
  const ScenarioReport a = simulate(options, kConstantModel);
  const ScenarioReport b = simulate(options, kConstantModel);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.latency.p50_s, b.latency.p50_s);
  EXPECT_EQ(a.latency.p99_s, b.latency.p99_s);
}

TEST(Simulator, SeedChangesArrivals) {
  ScenarioOptions options = constant_scenario(15.0, 20.0);
  const ScenarioReport a = simulate(options, kConstantModel);
  options.seed = 8;
  const ScenarioReport b = simulate(options, kConstantModel);
  EXPECT_NE(a.submitted, b.submitted);
}

TEST(Simulator, UnderloadServesEverything) {
  // Offered 10/s against capacity 20/s: no shedding, latency near service.
  const ScenarioReport r =
      simulate(constant_scenario(10.0, 30.0), kConstantModel);
  EXPECT_GT(r.submitted, 0);
  EXPECT_EQ(r.shed, 0);
  EXPECT_EQ(r.completed, r.submitted);
  EXPECT_GE(r.latency.p50_s, 0.1);  // at least the service time
  EXPECT_LT(r.latency.p50_s, 0.3);
}

TEST(Simulator, OverloadShedsButThroughputHolds) {
  // Offered 100/s against capacity 20/s: admission drops the excess and
  // completions run at capacity instead of collapsing.
  const ScenarioReport r =
      simulate(constant_scenario(100.0, 30.0), kConstantModel);
  EXPECT_GT(r.shed, 0);
  EXPECT_GT(r.shed_fraction, 0.5);
  EXPECT_GT(r.throughput_jobs_per_s, 0.9 * 20.0);
  EXPECT_LE(r.throughput_jobs_per_s, 20.0 + 1e-9);
  // Queue bound of 16 caps waiting time at depth/capacity + service.
  EXPECT_LE(r.latency.max_s, 16.0 / 20.0 + 0.1 + 1e-9);
}

TEST(Simulator, RejectsIllFormedScenarios) {
  const ScenarioOptions good = constant_scenario(10.0, 5.0);
  ScenarioOptions bad = good;
  bad.tenants.clear();
  EXPECT_THROW(simulate(bad, kConstantModel), std::invalid_argument);
  bad = good;
  bad.tenants[0].jobs.clear();
  EXPECT_THROW(simulate(bad, kConstantModel), std::invalid_argument);
  bad = good;
  bad.executors = 0;
  EXPECT_THROW(simulate(bad, kConstantModel), std::invalid_argument);
  bad = good;
  bad.arrival_rate_per_s = 0.0;
  EXPECT_THROW(simulate(bad, kConstantModel), std::invalid_argument);
  EXPECT_THROW(simulate(good, ServiceModel()), std::invalid_argument);
}

TEST(Simulator, ModeledServiceTimePricesBySignature) {
  // The default model returns the modeled run's virtual time and memoizes
  // by signature: two calls on the same config are bit-identical (and the
  // second is a lookup, though that is unobservable here by design).
  const ServiceModel model = modeled_service_time();
  core::ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 768;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  const double first = model(config);
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(model(config), first);
  // And it matches a direct modeled run of the same config.
  core::ExperimentConfig direct = config;
  direct.numeric = false;
  EXPECT_EQ(core::run_pmm(direct).exec_time_s, first);
}

}  // namespace
}  // namespace summagen::service

// Concurrent run_pmm callers over one shared RuntimeContext — the
// multi-tenant service's execution pattern, exercised raw (and under TSan
// in CI): N threads with mixed shapes/engines must not corrupt each
// other's numerics, virtual clocks, or per-job accounting.
//
// What is deterministic under concurrency (and asserted bit-exactly):
// modeled virtual times, numeric verification, and per-job copy and
// BufferPool acquire counts. Every dgemm packs its own B blocks, so a
// job's acquires are a fixed function of the job, and the per-job
// StatsSink rides the pool task token, so a buffer leased inside a band
// task on a stolen worker still bills the submitting job. What is NOT:
// BufferPool alloc/hit counts — pool workers race the rank threads on the
// freelists even in a single job — so nothing here asserts those.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/runtime_context.hpp"
#include "src/device/platform.hpp"

namespace summagen::core {
namespace {

ExperimentConfig modeled_config(partition::Shape shape) {
  ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 1024;
  config.shape = shape;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.engine = sgmpi::Engine::kModeled;
  return config;
}

ExperimentConfig numeric_config(partition::Shape shape, std::uint64_t seed) {
  ExperimentConfig config;
  config.platform = device::Platform::homogeneous(3);
  config.n = 192;
  config.shape = shape;
  config.numeric = true;
  config.seed = seed;
  return config;
}

TEST(ConcurrentRunner, MixedJobsMatchSoloRuns) {
  RuntimeContext::Options options;
  options.reserved_threads = 8;
  RuntimeContext ctx(options);

  const std::vector<ExperimentConfig> configs = {
      modeled_config(partition::Shape::kSquareCorner),
      modeled_config(partition::Shape::kSquareRectangle),
      numeric_config(partition::Shape::kSquareCorner, 7),
      numeric_config(partition::Shape::kBlockRectangle, 11),
  };

  // Solo reference runs, sequentially, under the same context.
  std::vector<ExperimentResult> solo;
  for (const auto& config : configs) {
    solo.push_back(run_pmm(config));
  }

  // The same four jobs, all in flight at once.
  std::vector<ExperimentResult> concurrent(configs.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    threads.emplace_back([&, i] { concurrent[i] = run_pmm(configs[i]); });
  }
  for (auto& t : threads) {
    t.join();
  }

  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    // Virtual clocks are a pure function of the config: concurrency must
    // not leak into them.
    EXPECT_EQ(concurrent[i].exec_time_s, solo[i].exec_time_s);
    EXPECT_EQ(concurrent[i].comp_time_s, solo[i].comp_time_s);
    EXPECT_EQ(concurrent[i].comm_time_s, solo[i].comm_time_s);
    if (configs[i].numeric) {
      EXPECT_TRUE(concurrent[i].verified);
    }
    // Per-job attribution: the concurrent job bills exactly the events the
    // solo run did, not a slice of its neighbours'.
    EXPECT_EQ(concurrent[i].alloc.copy_calls, solo[i].alloc.copy_calls);
    EXPECT_EQ(concurrent[i].alloc.copy_bytes, solo[i].alloc.copy_bytes);
    EXPECT_EQ(concurrent[i].alloc.pool_acquires,
              solo[i].alloc.pool_acquires);
  }
}

TEST(ConcurrentRunner, KeyedJobsShareOnePlanAcrossThreads) {
  RuntimeContext::Options options;
  options.reserved_threads = 4;
  RuntimeContext ctx(options);

  ExperimentConfig config = modeled_config(partition::Shape::kSquareCorner);
  config.plan_cache_key = 0xBEEF;

  // Warm the cache so the concurrent lookups below are all hits (a cold
  // concurrent start may race-build the plan, which keeps results correct
  // but makes hit counts timing-dependent).
  const ExperimentResult warm = run_pmm(config);
  EXPECT_FALSE(warm.plan_cache_hit);

  constexpr int kThreads = 4;
  std::vector<ExperimentResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { results[static_cast<std::size_t>(i)] =
                                      run_pmm(config); });
  }
  for (auto& t : threads) {
    t.join();
  }

  for (const auto& r : results) {
    EXPECT_TRUE(r.plan_cache_hit);
    EXPECT_EQ(r.exec_time_s, warm.exec_time_s);
    EXPECT_EQ(r.spec.subp, warm.spec.subp);
  }
  const auto stats = ctx.plan_cache_stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.lookups, 1 + kThreads);
  EXPECT_EQ(stats.hits, kThreads);
}

TEST(ConcurrentRunner, RepeatedKeyedJobReusesPlansAndSchedules) {
  RuntimeContext::Options options;
  options.reserved_threads = 4;
  RuntimeContext ctx(options);

  // Modeled plane: the repeat must be served by the shared-schedule cache.
  ExperimentConfig modeled = modeled_config(partition::Shape::kSquareCorner);
  modeled.plan_cache_key = 0xC0FFEE;
  const ExperimentResult cold = run_pmm(modeled);
  const ExperimentResult hot = run_pmm(modeled);
  EXPECT_TRUE(hot.plan_cache_hit);
  EXPECT_GT(hot.alloc.sched_lookups, 0);
  EXPECT_EQ(hot.alloc.sched_hits, hot.alloc.sched_lookups);
  EXPECT_EQ(hot.exec_time_s, cold.exec_time_s);

  // Numeric plane: the repeat reuses the plan and the schedule, packs its
  // own B blocks, and computes the same C bit for bit.
  ExperimentConfig numeric =
      numeric_config(partition::Shape::kSquareCorner, 7);
  numeric.plan_cache_key = 0xFEED;
  const ExperimentResult first = run_pmm(numeric);
  const ExperimentResult second = run_pmm(numeric);
  EXPECT_TRUE(first.verified);
  EXPECT_TRUE(second.verified);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_GT(second.alloc.sched_lookups, 0);
  EXPECT_EQ(second.alloc.sched_hits, second.alloc.sched_lookups);
  EXPECT_EQ(std::memcmp(&second.max_abs_error, &first.max_abs_error,
                        sizeof(double)),
            0)
      << first.max_abs_error << " vs " << second.max_abs_error;
}

}  // namespace
}  // namespace summagen::core

// PmmService: the threaded job-stream frontend — future delivery, load
// shedding, failure isolation, cross-job reuse, and counter consistency
// under concurrent submitters (runs under TSan in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/service/service.hpp"
#include "src/util/accounting.hpp"
#include "src/util/buffer_pool.hpp"

namespace summagen::service {
namespace {

core::ExperimentConfig numeric_config(partition::Shape shape,
                                      std::uint64_t seed = 42) {
  core::ExperimentConfig config;
  config.platform = device::Platform::homogeneous(3);
  config.n = 160;
  config.shape = shape;
  config.numeric = true;
  config.seed = seed;
  return config;
}

core::ExperimentConfig modeled_config(partition::Shape shape) {
  core::ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 1024;
  config.shape = shape;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.engine = sgmpi::Engine::kModeled;
  return config;
}

PmmService::Options small_service(int executors) {
  PmmService::Options options;
  options.executors = executors;
  options.runtime.reserved_threads = 8;
  return options;
}

TEST(PmmService, DeliversMixedJobsFromConcurrentSubmitters) {
  PmmService service(small_service(2));
  const std::vector<core::ExperimentConfig> configs = {
      numeric_config(partition::Shape::kSquareCorner),
      numeric_config(partition::Shape::kBlockRectangle),
      modeled_config(partition::Shape::kSquareCorner),
      modeled_config(partition::Shape::kSquareRectangle),
  };

  std::vector<std::future<JobResult>> futures(configs.size() * 2);
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        futures[static_cast<std::size_t>(t) * configs.size() + i] =
            service.submit(t == 0 ? "alpha" : "beta", configs[i]);
      }
    });
  }
  for (auto& t : submitters) {
    t.join();
  }

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const JobResult r = futures[i].get();
    SCOPED_TRACE("job " + std::to_string(i));
    ASSERT_EQ(r.status, JobStatus::kCompleted) << r.error;
    EXPECT_GE(r.batch_size, 1);
    EXPECT_GE(r.latency_s, 0.0);
    if (configs[i % configs.size()].numeric) {
      EXPECT_TRUE(r.result.verified);
    }
  }

  const auto counters = service.counters();
  EXPECT_EQ(counters.submitted, 8);
  EXPECT_EQ(counters.completed, 8);
  EXPECT_EQ(counters.shed, 0);
  EXPECT_EQ(counters.failed, 0);
  EXPECT_EQ(service.tenant_stats("alpha").submitted, 4);
  EXPECT_EQ(service.tenant_stats("beta").submitted, 4);
}

TEST(PmmService, IdenticalJobsReuseThePlanAcrossTheStream) {
  PmmService service(small_service(1));
  const core::ExperimentConfig config =
      modeled_config(partition::Shape::kSquareCorner);

  const JobResult first = service.submit("t", config).get();
  ASSERT_EQ(first.status, JobStatus::kCompleted) << first.error;
  const JobResult second = service.submit("t", config).get();
  ASSERT_EQ(second.status, JobStatus::kCompleted) << second.error;

  // The service derived plan_cache_key from the job signature: the repeat
  // is plan-cache served, schedule-cache served, and bit-identical.
  EXPECT_FALSE(first.result.plan_cache_hit);
  EXPECT_TRUE(second.result.plan_cache_hit);
  EXPECT_GT(second.result.alloc.sched_lookups, 0);
  EXPECT_EQ(second.result.alloc.sched_hits,
            second.result.alloc.sched_lookups);
  EXPECT_EQ(second.result.exec_time_s, first.result.exec_time_s);
  const auto stats = service.runtime().plan_cache_stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.hits, 1);
}

TEST(PmmService, DrainedServiceHoldsNoPooledMemory) {
  // No packed panel or other pooled scratch outlives the job that leased
  // it: after two identical numeric jobs, trimming the pool's idle buffers
  // leaves nothing resident, even with the service (and its runtime
  // context) still alive.
  PmmService service(small_service(1));
  const core::ExperimentConfig config =
      numeric_config(partition::Shape::kSquareCorner);
  for (int i = 0; i < 2; ++i) {
    const JobResult r = service.submit("t", config).get();
    ASSERT_EQ(r.status, JobStatus::kCompleted) << r.error;
    EXPECT_TRUE(r.result.verified);
  }
  service.drain();
  util::BufferPool::instance().trim();
  EXPECT_EQ(util::data_plane_stats().pool_resident_bytes, 0);
}

TEST(PmmService, BatchesIdenticalQueuedJobs) {
  // One executor, deep queue: stall it with a numeric job (tens of ms of
  // real compute), pile up four identical modeled jobs behind it, and
  // watch them come back as one batch.
  PmmService::Options options = small_service(1);
  options.queue.batch_limit = 8;
  PmmService service(options);
  const core::ExperimentConfig config =
      modeled_config(partition::Shape::kSquareCorner);

  auto head = service.submit(
      "t", numeric_config(partition::Shape::kSquareCorner));
  std::vector<std::future<JobResult>> tail;
  for (int i = 0; i < 4; ++i) {
    tail.push_back(service.submit("t", config));
  }
  service.drain();

  EXPECT_EQ(head.get().status, JobStatus::kCompleted);
  int batched = 0;
  for (auto& f : tail) {
    const JobResult r = f.get();
    EXPECT_EQ(r.status, JobStatus::kCompleted);
    batched = std::max(batched, r.batch_size);
  }
  // Timing-dependent how many queued before the executor freed, but the
  // tail jobs were all enqueued before any of them ran, so at least two
  // must have shared an execution.
  EXPECT_GE(batched, 2);
  EXPECT_EQ(service.counters().completed, 5);
}

TEST(PmmService, ShedsAtAdmissionWhenFull) {
  PmmService::Options options = small_service(1);
  options.queue.max_depth = 1;
  options.queue.batch_limit = 1;
  PmmService service(options);
  const core::ExperimentConfig config =
      modeled_config(partition::Shape::kSquareCorner);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service.submit("t", config));
  }
  int completed = 0;
  int shed = 0;
  for (auto& f : futures) {
    const JobResult r = f.get();
    if (r.status == JobStatus::kCompleted) {
      ++completed;
    } else {
      EXPECT_EQ(r.status, JobStatus::kShed);
      ++shed;
    }
  }
  EXPECT_EQ(completed + shed, 12);
  EXPECT_GT(shed, 0);  // depth 1 cannot hold a 12-deep burst
  const auto counters = service.counters();
  EXPECT_EQ(counters.completed, completed);
  EXPECT_EQ(counters.shed, shed);
}

TEST(PmmService, FailedJobsDeliverTheErrorAndSpareTheRest) {
  PmmService service(small_service(1));
  core::ExperimentConfig bad = modeled_config(partition::Shape::kSquareCorner);
  bad.n = -1;
  auto bad_future = service.submit("t", bad);
  auto good_future =
      service.submit("t", modeled_config(partition::Shape::kSquareCorner));

  const JobResult bad_result = bad_future.get();
  EXPECT_EQ(bad_result.status, JobStatus::kFailed);
  EXPECT_FALSE(bad_result.error.empty());
  EXPECT_EQ(good_future.get().status, JobStatus::kCompleted);
  EXPECT_EQ(service.counters().failed, 1);
  EXPECT_EQ(service.counters().completed, 1);
}

TEST(PmmService, DwrrWeightsShapeServiceOrder) {
  // Single executor, jobs pre-queued while it is busy: the 4:1 weighting
  // must show in the queue's served-units accounting.
  PmmService::Options options = small_service(1);
  options.queue.batch_limit = 1;
  PmmService service(options);
  service.set_tenant_weight("gold", 4.0);
  service.set_tenant_weight("bronze", 1.0);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.submit(
        "gold", modeled_config(partition::Shape::kSquareCorner)));
    futures.push_back(service.submit(
        "bronze", modeled_config(partition::Shape::kSquareRectangle)));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, JobStatus::kCompleted);
  }
  // Everything completes (work-conserving), and both tenants' accounting
  // adds up.
  EXPECT_EQ(service.tenant_stats("gold").dispatched, 6);
  EXPECT_EQ(service.tenant_stats("bronze").dispatched, 6);
  EXPECT_GT(service.tenant_stats("gold").service_units, 0.0);
}

TEST(PmmService, DestructorDrainsAdmittedJobs) {
  std::future<JobResult> future;
  {
    PmmService service(small_service(1));
    future = service.submit("t", modeled_config(partition::Shape::kSquareCorner));
  }
  EXPECT_EQ(future.get().status, JobStatus::kCompleted);
}

TEST(PmmService, OnlyOneRuntimeContextAllowed) {
  PmmService service(small_service(1));
  EXPECT_THROW(core::RuntimeContext(), std::logic_error);
}

// Batch members all receive the front job's result, so any field that
// changes what a job computes or how long it takes must reach the
// signature — the fast-MM fields change both the modeled virtual time
// (kernel_cost prices fastmm_modeled_flops) and the verify tolerance.
TEST(JobSignature, EqualConfigsShareASignature) {
  core::ExperimentConfig a = numeric_config(partition::Shape::kSquareCorner);
  core::ExperimentConfig b = numeric_config(partition::Shape::kSquareCorner);
  a.kernel.fastmm = b.kernel.fastmm = blas::FastMmKind::kStrassen;
  a.kernel.fastmm_crossover = b.kernel.fastmm_crossover = 64;
  a.kernel.fastmm_max_depth = b.kernel.fastmm_max_depth = 2;
  EXPECT_NE(job_signature(a), 0u);
  EXPECT_EQ(job_signature(a), job_signature(b));
}

TEST(JobSignature, EachFastMmFieldChangesTheSignature) {
  const core::ExperimentConfig base =
      numeric_config(partition::Shape::kSquareCorner);
  const std::uint64_t sig = job_signature(base);

  core::ExperimentConfig kind = base;
  kind.kernel.fastmm = blas::FastMmKind::kStrassen;
  EXPECT_NE(job_signature(kind), sig);

  core::ExperimentConfig crossover = base;
  crossover.kernel.fastmm_crossover = 64;
  EXPECT_NE(job_signature(crossover), sig);

  core::ExperimentConfig depth = base;
  depth.kernel.fastmm_max_depth = 1;
  EXPECT_NE(job_signature(depth), sig);
}

}  // namespace
}  // namespace summagen::service

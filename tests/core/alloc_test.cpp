// Allocation-behaviour acceptance tests for the zero-copy data plane.
//
// The pre-refactor plane allocated private sub-partition copies, broadcast
// staging buffers, and fresh workspaces on every run — 69-96 MiB per
// N=1024 numeric execution (the `kSeedAllocBytes` table below, measured on
// the seed implementation). The refactored plane reads operands as views
// over the globals and leases every transient from the BufferPool, so once
// the pool is warm a run performs ZERO data-plane heap allocations: at
// least 5x below the seed on every shape, and in particular nothing per
// k-chunk in the task-graph scheduler's steady state.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/core/runner.hpp"
#include "src/util/accounting.hpp"
#include "src/util/buffer_pool.hpp"

namespace summagen {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::Scheduler;
using partition::Shape;

struct ShapeCase {
  Shape shape;
  const char* name;
  // Seed-implementation bytes allocated per N=1024 numeric run (measured
  // over the execution window: local stores + execution + C gather), for
  // the eager and the k-chunked pipelined schedulers respectively. The
  // task-graph runs are held to the pipelined figure: the seed had no
  // task-graph scheduler, and pipelined was its k-chunked schedule.
  std::int64_t seed_eager_bytes;
  std::int64_t seed_pipelined_bytes;
};

constexpr std::int64_t kMiB = 1024 * 1024;

const ShapeCase kCases[] = {
    {Shape::kSquareCorner, "square_corner",
     static_cast<std::int64_t>(74.26 * kMiB),
     static_cast<std::int64_t>(96.08 * kMiB)},
    {Shape::kSquareRectangle, "square_rectangle",
     static_cast<std::int64_t>(74.18 * kMiB),
     static_cast<std::int64_t>(86.42 * kMiB)},
    {Shape::kBlockRectangle, "block_rectangle",
     static_cast<std::int64_t>(69.39 * kMiB),
     static_cast<std::int64_t>(74.87 * kMiB)},
    {Shape::kOneDimensional, "one_dimensional",
     static_cast<std::int64_t>(72.27 * kMiB),
     static_cast<std::int64_t>(82.05 * kMiB)},
};

ExperimentConfig numeric_config(Shape shape, Scheduler scheduler) {
  ExperimentConfig config;
  config.n = 1024;
  config.shape = shape;
  config.numeric = true;
  config.summagen_options.scheduler = scheduler;
  return config;
}

// Runs every shape twice per scheduler: the first run may miss the pool
// (first touch of each size class), the second must be allocation-free and
// comfortably beat the >= 5x acceptance bound against the seed baseline.
TEST(AllocSteadyState, WarmNumericRunsAllocateNothing) {
  for (const ShapeCase& sc : kCases) {
    for (Scheduler scheduler : {Scheduler::kEager, Scheduler::kTaskGraph}) {
      const ExperimentConfig config = numeric_config(sc.shape, scheduler);
      const ExperimentResult cold = core::run_pmm(config);
      ASSERT_TRUE(cold.verified) << sc.name;
      const ExperimentResult warm = core::run_pmm(config);
      ASSERT_TRUE(warm.verified) << sc.name;

      const std::string label =
          std::string(sc.name) +
          (scheduler == Scheduler::kEager ? "/eager" : "/taskgraph");
      const std::int64_t seed_bytes = scheduler == Scheduler::kEager
                                          ? sc.seed_eager_bytes
                                          : sc.seed_pipelined_bytes;
      // >= 5x reduction against the seed implementation's bytes, asserted
      // at 16x so the bound documents the real margin.
      EXPECT_LE(warm.alloc.alloc_bytes, seed_bytes / 16) << label;
      // The steady-state property: operands are views, C is written in
      // place, every workspace comes from the pool. A handful of residual
      // misses are legal — the pool caches by observed *concurrent* use,
      // and thread scheduling can raise a size class's high-water mark on
      // any run — but allocation must no longer scale with the problem.
      EXPECT_LE(warm.alloc.allocs, 4) << label;
      EXPECT_GE(warm.alloc.pool_hit_rate(), 0.95) << label;
      // Copies are panel landings only — strictly below the seed's volume
      // (which staged every broadcast through scratch and gathered C).
      EXPECT_LT(warm.alloc.copy_bytes, seed_bytes) << label;
    }
  }
}

// Zero per-k-chunk allocations in the task-graph steady state: k-chunk
// count scales with n/panel, so if any per-chunk allocation existed the
// delta between two warm runs at different chunk counts would show it.
TEST(AllocSteadyState, TaskGraphChunkCountDoesNotChangeAllocations) {
  ExperimentConfig config =
      numeric_config(Shape::kSquareCorner, Scheduler::kTaskGraph);
  config.n = 512;
  core::run_pmm(config);  // warm the pool for this problem size
  const ExperimentResult coarse = core::run_pmm(config);
  config.summagen_options.bcast_panel_rows = 64;  // more chunks per frame
  core::run_pmm(config);  // warm any panel-size-dependent classes
  const ExperimentResult fine = core::run_pmm(config);
  ASSERT_TRUE(coarse.verified);
  ASSERT_TRUE(fine.verified);
  // The fine run executes ~8x more k-chunks than the coarse run; if any
  // per-chunk allocation existed it would show up as hundreds of allocs.
  EXPECT_LE(coarse.alloc.allocs, 4);
  EXPECT_LE(fine.alloc.allocs, 4);
  EXPECT_LE(fine.alloc.alloc_bytes, 4 * kMiB);
}

// A run's WA/WB workspace is one pooled lease, and the pool lends an idle
// block one size class up, so rotating through shapes whose workspaces
// differ reuses the first run's block: after the first run no run
// allocates a workspace and the pool's residency stays flat. The slack is
// one per-call scratch block — a packed B block of n x KC = 1024 x 256
// doubles — the scheduling jitter the warm-run test above also allows.
TEST(AllocSteadyState, ShapeRotationReusesOneWorkspace) {
  constexpr std::int64_t kScratchSlack = 2 * kMiB;
  util::BufferPool::instance().trim();
  std::int64_t first_resident = -1;
  for (int round = 0; round < 2; ++round) {
    for (Shape shape : {Shape::kSquareCorner, Shape::kSquareRectangle,
                        Shape::kBlockRectangle}) {
      ExperimentConfig config = numeric_config(shape, Scheduler::kTaskGraph);
      config.cpm_speeds = {1.0, 2.0, 0.9};  // HCLServer1, n = 1024
      const ExperimentResult run = core::run_pmm(config);
      ASSERT_TRUE(run.verified) << partition::shape_name(shape);
      const std::int64_t resident =
          util::data_plane_stats().pool_resident_bytes;
      if (first_resident < 0) {
        first_resident = resident;
        continue;
      }
      const std::string label = std::string(partition::shape_name(shape)) +
                                " round " + std::to_string(round);
      EXPECT_LE(run.alloc.alloc_bytes, kScratchSlack) << label;
      EXPECT_LE(resident, first_resident + kScratchSlack) << label;
    }
  }
}

// Each rank stores only the blocks it receives, so a fault-free run copies
// each line's payload once per receiver, (owners - 1) times, and an owner
// copies nothing of its own: copy_bytes =
// 8 n (sum over A rows of h (owners - 1) + sum over B columns of
// w (owners - 1)). Landing the owners' own blocks too would add 16 n^2.
TEST(AllocSteadyState, RunCopiesOnlyWhatReceiversStore) {
  for (const std::int64_t n : {std::int64_t{203}, std::int64_t{512}}) {
    for (const ShapeCase& sc : kCases) {
      for (Scheduler scheduler : {Scheduler::kEager, Scheduler::kTaskGraph}) {
        ExperimentConfig config = numeric_config(sc.shape, scheduler);
        config.n = n;
        const ExperimentResult run = core::run_pmm(config);
        const std::string label = std::string(sc.name) + " " +
                                  core::to_string(scheduler) + " n=" +
                                  std::to_string(n);
        ASSERT_TRUE(run.verified) << label;
        const partition::PartitionSpec& spec = run.spec;
        std::int64_t received = 0;  // elements, over all receivers
        for (int bi = 0; bi < spec.subplda; ++bi) {
          received += spec.subph[static_cast<std::size_t>(bi)] * n *
                      static_cast<std::int64_t>(spec.ranks_in_row(bi).size() -
                                                1);
        }
        for (int bj = 0; bj < spec.subpldb; ++bj) {
          received += spec.subpw[static_cast<std::size_t>(bj)] * n *
                      static_cast<std::int64_t>(spec.ranks_in_col(bj).size() -
                                                1);
        }
        EXPECT_EQ(run.alloc.copy_bytes,
                  received * static_cast<std::int64_t>(sizeof(double)))
            << label;
      }
    }
  }
}

// Every pooled lease ends with the call or run that took it: once a run
// has returned, trimming the pool's idle buffers leaves nothing resident.
// A packed B block kept alive across runs would show up here.
TEST(AllocSteadyState, FinishedRunHoldsNoPooledMemory) {
  ExperimentConfig config =
      numeric_config(Shape::kSquareCorner, Scheduler::kTaskGraph);
  config.n = 512;  // the default platform: HCLServer1
  ASSERT_TRUE(core::run_pmm(config).verified);
  util::BufferPool::instance().trim();
  EXPECT_EQ(util::data_plane_stats().pool_resident_bytes, 0);
}

}  // namespace
}  // namespace summagen

// Scheduler equivalence: kTaskGraph must produce bit-identical C to kEager
// across all four paper shapes, and its modeled timeline must obey the
// overlap invariants (strictly faster than eager on a comm-bound fabric,
// same broadcast count and bytes — overlap hides cost, it never changes
// what is communicated).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/runner.hpp"
#include "src/util/rng.hpp"

namespace summagen {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::Scheduler;
using partition::Shape;

/// Gathers the full distributed C of one numeric execution.
util::Matrix distributed_c(Shape shape, Scheduler scheduler, int depth,
                           std::int64_t panel_rows) {
  const std::int64_t n = 120;
  const auto areas =
      partition::partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  const auto spec = partition::build_shape(shape, n, areas);

  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, 1);
  util::fill_random(b, 2);
  std::vector<std::unique_ptr<core::LocalData>> locals;
  for (int r = 0; r < 3; ++r) {
    locals.push_back(std::make_unique<core::LocalData>(spec, r, a, b));
  }
  const auto platform = device::Platform::hclserver1();
  const auto processors = platform.processors(blas::GemmOptions{});

  core::SummaGenOptions options;
  options.scheduler = scheduler;
  options.overlap_depth = depth;
  options.bcast_panel_rows = panel_rows;

  sgmpi::Config mpi_config;
  mpi_config.nranks = 3;
  sgmpi::Runtime runtime(mpi_config);
  runtime.run([&](sgmpi::Comm& world) {
    const std::size_t r = static_cast<std::size_t>(world.rank());
    core::summagen_rank(world, spec, processors[r], locals[r].get(),
                        /*contended=*/true, options);
  });

  util::Matrix c(n, n);
  for (int r = 0; r < 3; ++r) {
    locals[static_cast<std::size_t>(r)]->gather_c(spec, c);
  }
  return c;
}

class SchedulerEquivalence : public ::testing::TestWithParam<Shape> {};

TEST_P(SchedulerEquivalence, OverlappingCBitIdenticalToEager) {
  const Shape shape = GetParam();
  const util::Matrix eager =
      distributed_c(shape, Scheduler::kEager, 0, /*panel_rows=*/0);
  for (const int depth : {0, 1, 2}) {
    for (const std::int64_t panel_rows :
         {std::int64_t{0}, std::int64_t{16}}) {
      const util::Matrix overlapped =
          distributed_c(shape, Scheduler::kTaskGraph, depth, panel_rows);
      EXPECT_EQ(util::Matrix::max_abs_diff(eager, overlapped), 0.0)
          << partition::shape_name(shape) << " depth=" << depth
          << " panel_rows=" << panel_rows;
    }
  }
}

/// A configuration where communication matters: a slow fabric makes the
/// broadcasts worth hiding.
ExperimentConfig comm_bound_config(Shape shape, Scheduler scheduler) {
  ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.platform.mpi_link.beta_s_per_byte *= 200.0;
  config.n = 2048;
  config.shape = shape;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.summagen_options.scheduler = scheduler;
  config.summagen_options.overlap_depth = 0;  // unbounded prefetch window
  config.summagen_options.bcast_panel_rows = 64;
  return config;
}

TEST_P(SchedulerEquivalence, OverlapNeverSlowerAndTrafficIdentical) {
  const Shape shape = GetParam();
  const ExperimentResult eager =
      core::run_pmm(comm_bound_config(shape, Scheduler::kEager));
  const ExperimentResult taskgraph =
      core::run_pmm(comm_bound_config(shape, Scheduler::kTaskGraph));

  // Overlap hides broadcast cost; it never changes what is communicated.
  ASSERT_EQ(eager.reports.size(), taskgraph.reports.size());
  for (std::size_t r = 0; r < eager.reports.size(); ++r) {
    EXPECT_EQ(eager.reports[r].bcasts, taskgraph.reports[r].bcasts)
        << "rank " << r;
    EXPECT_EQ(eager.reports[r].bcast_bytes, taskgraph.reports[r].bcast_bytes)
        << "rank " << r;
  }

  // The eager schedule hides nothing; the comm-bound overlapping run must
  // hide something on at least one rank and be strictly faster.
  EXPECT_EQ(eager.hidden_comm_time_s, 0.0);
  EXPECT_GT(taskgraph.hidden_comm_time_s, 0.0)
      << partition::shape_name(shape);
  EXPECT_LT(taskgraph.exec_time_s, eager.exec_time_s)
      << partition::shape_name(shape);

  // Total computation is scheduler-invariant: the chunks are pro-rata
  // slices of the same kernel invocations.
  EXPECT_NEAR(taskgraph.comp_time_s, eager.comp_time_s,
              1e-9 * eager.comp_time_s);
}

TEST_P(SchedulerEquivalence, BoundedDepthStillVerifiesNumerically) {
  const Shape shape = GetParam();
  ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 96;
  config.shape = shape;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.numeric = true;
  config.summagen_options.scheduler = Scheduler::kTaskGraph;
  config.summagen_options.overlap_depth = 1;  // smallest legal window
  config.summagen_options.bcast_panel_rows = 8;
  const ExperimentResult res = core::run_pmm(config);
  EXPECT_TRUE(res.verified)
      << partition::shape_name(shape) << " " << res.max_abs_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchedulerEquivalence,
    ::testing::Values(Shape::kSquareCorner, Shape::kSquareRectangle,
                      Shape::kBlockRectangle, Shape::kOneDimensional),
    [](const auto& param_info) {
      return std::string(partition::shape_name(param_info.param));
    });

}  // namespace
}  // namespace summagen

// Metamorphic properties of the full PMM pipeline: relations that must
// hold between related runs, independent of absolute results.
#include <gtest/gtest.h>

#include "src/core/reference.hpp"
#include "src/core/runner.hpp"
#include "src/util/rng.hpp"

namespace summagen::core {
namespace {

// Numeric SummaGen product over a shape with explicit inputs.
util::Matrix product(const partition::PartitionSpec& spec,
                     const device::Platform& platform, const util::Matrix& a,
                     const util::Matrix& b) {
  const int p = platform.nprocs();
  const auto processors = platform.processors();
  const RunStores stores(spec, p, a, b);
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  sgmpi::Runtime runtime(mpi_config);
  runtime.run([&](sgmpi::Comm& world) {
    summagen_rank(world, spec,
                  processors[static_cast<std::size_t>(world.rank())],
                  stores.at(world.rank()));
  });
  util::Matrix c(spec.n, spec.n);
  stores.gather_c(c);
  return c;
}

partition::PartitionSpec test_spec(std::int64_t n) {
  const auto areas = partition::partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  return partition::build_shape(partition::Shape::kSquareCorner, n, areas);
}

TEST(Metamorphic, ScalingAScalesC) {
  const std::int64_t n = 96;
  const auto platform = device::Platform::synthetic({1.0, 2.0, 0.9});
  const auto spec = test_spec(n);
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, 1);
  util::fill_random(b, 2);
  const auto c1 = product(spec, platform, a, b);
  util::Matrix a2 = a;
  for (double& v : a2.span()) v *= 2.0;
  const auto c2 = product(spec, platform, a2, b);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(c2(i, j), 2.0 * c1(i, j), 1e-10);
    }
  }
}

TEST(Metamorphic, IdentityBReproducesA) {
  const std::int64_t n = 64;
  const auto platform = device::Platform::synthetic({1.0, 2.0, 0.9});
  const auto spec = test_spec(n);
  util::Matrix a(n, n), identity(n, n);
  util::fill_random(a, 3);
  for (std::int64_t i = 0; i < n; ++i) identity(i, i) = 1.0;
  const auto c = product(spec, platform, a, identity);
  EXPECT_LE(util::Matrix::max_abs_diff(c, a), 1e-12);
}

TEST(Metamorphic, ZeroAGivesZeroC) {
  const std::int64_t n = 64;
  const auto platform = device::Platform::synthetic({1.0, 2.0, 0.9});
  const auto spec = test_spec(n);
  util::Matrix zero(n, n), b(n, n);
  util::fill_random(b, 4);
  const auto c = product(spec, platform, zero, b);
  for (double v : c.span()) EXPECT_EQ(v, 0.0);
}

TEST(Metamorphic, ResultIndependentOfShape) {
  // All shapes compute the same C (bitwise, since the kernel reduction
  // order over k is identical for every sub-partition).
  const std::int64_t n = 80;
  const auto platform = device::Platform::synthetic({1.0, 2.0, 0.9});
  const auto areas = partition::partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, 5);
  util::fill_random(b, 6);
  const auto base = product(
      partition::build_shape(partition::Shape::kSquareCorner, n, areas),
      platform, a, b);
  for (auto s : partition::extended_shapes()) {
    const auto c = product(partition::build_shape(s, n, areas), platform, a,
                           b);
    EXPECT_LE(util::Matrix::max_abs_diff(c, base), 1e-12)
        << partition::shape_name(s);
  }
}

TEST(Metamorphic, ExecTimeMonotoneInProblemSize) {
  // Under a fixed shape/regime, the modeled time grows with n.
  double prev = 0.0;
  for (std::int64_t n : {512, 1024, 2048, 4096}) {
    ExperimentConfig config;
    config.n = n;
    config.shape = partition::Shape::kBlockRectangle;
    config.cpm_speeds = {1.0, 2.0, 0.9};
    const double t = run_pmm(config).exec_time_s;
    EXPECT_GT(t, prev) << "n=" << n;
    prev = t;
  }
}

TEST(Metamorphic, FasterPlatformIsFaster) {
  ExperimentConfig config;
  config.n = 1024;
  config.shape = partition::Shape::kOneDimensional;
  config.cpm_speeds = {1.0, 1.0, 1.0};
  config.platform = device::Platform::synthetic({1.0, 1.0, 1.0}, 100e9);
  const auto slow = run_pmm(config);
  config.platform = device::Platform::synthetic({1.0, 1.0, 1.0}, 400e9);
  const auto fast = run_pmm(config);
  // Computation scales exactly with device speed; communication does not,
  // so total time improves by less than 4x.
  EXPECT_NEAR(slow.comp_time_s / fast.comp_time_s, 4.0, 1e-6);
  EXPECT_GT(slow.exec_time_s / fast.exec_time_s, 1.5);
  EXPECT_DOUBLE_EQ(slow.comm_time_s, fast.comm_time_s);
}

TEST(Metamorphic, CommVolumeIndependentOfDeviceSpeeds) {
  // The broadcast bytes depend only on the partition geometry, not on how
  // fast the devices are.
  const std::int64_t n = 1024;
  const auto areas = partition::partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  auto total_bytes = [&](double unit) {
    ExperimentConfig config;
    config.n = n;
    config.platform = device::Platform::synthetic({1.0, 2.0, 0.9}, unit);
    config.cpm_speeds = {1.0, 2.0, 0.9};
    config.preset_areas = areas;
    config.shape = partition::Shape::kSquareRectangle;
    const auto res = run_pmm(config);
    std::int64_t bytes = 0;
    for (const auto& rep : res.reports) bytes += rep.bcast_bytes;
    return bytes;
  };
  EXPECT_EQ(total_bytes(50e9), total_bytes(800e9));
}

TEST(Metamorphic, ContentionNeverSpeedsUp) {
  ExperimentConfig config;
  config.n = 2048;
  config.shape = partition::Shape::kBlockRectangle;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.contended = true;
  const double loaded = run_pmm(config).exec_time_s;
  config.contended = false;
  const double solo = run_pmm(config).exec_time_s;
  EXPECT_LE(solo, loaded);
}

TEST(Metamorphic, SlowerNetworkOnlyAffectsCommTime) {
  ExperimentConfig config;
  config.n = 2048;
  config.shape = partition::Shape::kSquareCorner;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  const auto fast = run_pmm(config);
  config.platform.mpi_link.beta_s_per_byte *= 100.0;
  const auto slow = run_pmm(config);
  EXPECT_GT(slow.comm_time_s, 10.0 * fast.comm_time_s);
  EXPECT_DOUBLE_EQ(slow.comp_time_s, fast.comp_time_s);
}

}  // namespace
}  // namespace summagen::core

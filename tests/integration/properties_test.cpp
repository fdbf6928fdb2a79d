// Randomised property tests: SummaGen must compute the correct product and
// keep its invariants for arbitrary valid partition specs — including
// hand-crafted irregular ones no shape builder would produce.
#include <gtest/gtest.h>

#include <numeric>

#include "src/core/reference.hpp"
#include "src/core/runner.hpp"
#include "src/partition/nrrp.hpp"
#include "src/util/rng.hpp"

namespace summagen {
namespace {

// Runs SummaGen numerically over an arbitrary spec and platform; returns
// max |C - A*B|.
double run_spec(const partition::PartitionSpec& spec, int nprocs,
                std::uint64_t seed) {
  const auto platform = device::Platform::homogeneous(nprocs);
  const auto processors = platform.processors();
  util::Matrix a(spec.n, spec.n), b(spec.n, spec.n);
  util::fill_random(a, util::derive_seed(seed, 1));
  util::fill_random(b, util::derive_seed(seed, 2));
  const core::RunStores stores(spec, nprocs, a, b);
  sgmpi::Config mpi_config;
  mpi_config.nranks = nprocs;
  sgmpi::Runtime runtime(mpi_config);
  runtime.run([&](sgmpi::Comm& world) {
    core::summagen_rank(world, spec,
                        processors[static_cast<std::size_t>(world.rank())],
                        stores.at(world.rank()));
  });
  util::Matrix c(spec.n, spec.n);
  stores.gather_c(c);
  return util::Matrix::max_abs_diff(c, core::reference_multiply(a, b));
}

// Random valid spec: random grid cuts, random owners.
partition::PartitionSpec random_spec(util::Rng& rng, std::int64_t n,
                                     int nprocs) {
  partition::PartitionSpec spec;
  spec.n = n;
  spec.subplda = static_cast<int>(rng.uniform_int(1, 4));
  spec.subpldb = static_cast<int>(rng.uniform_int(1, 4));
  auto cuts = [&](int parts) {
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(parts), 0);
    std::int64_t left = n;
    for (int i = 0; i < parts - 1; ++i) {
      sizes[static_cast<std::size_t>(i)] =
          rng.uniform_int(0, left);  // zero extents allowed
      left -= sizes[static_cast<std::size_t>(i)];
    }
    sizes[static_cast<std::size_t>(parts - 1)] = left;
    return sizes;
  };
  spec.subph = cuts(spec.subplda);
  spec.subpw = cuts(spec.subpldb);
  spec.subp.resize(static_cast<std::size_t>(spec.subplda) *
                   static_cast<std::size_t>(spec.subpldb));
  for (auto& owner : spec.subp) {
    owner = static_cast<int>(rng.uniform_int(0, nprocs - 1));
  }
  return spec;
}

TEST(RandomSpecs, SummaGenCorrectOnArbitraryValidLayouts) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const std::int64_t n = rng.uniform_int(8, 96);
    const int nprocs = static_cast<int>(rng.uniform_int(1, 4));
    const auto spec = random_spec(rng, n, nprocs);
    ASSERT_NO_THROW(spec.validate(nprocs));
    const double err = run_spec(spec, nprocs, 100 + trial);
    EXPECT_LE(err, core::gemm_tolerance(n))
        << "trial " << trial << " n=" << n << " p=" << nprocs << "\n"
        << spec.render(std::max<std::int64_t>(1, n / 16));
  }
}

TEST(RandomSpecs, RankOwningNothingIsHarmless) {
  // Owner 2 never appears; ranks 0..2 all participate in the run.
  partition::PartitionSpec spec;
  spec.n = 32;
  spec.subplda = 1;
  spec.subpldb = 2;
  spec.subp = {0, 1};
  spec.subph = {32};
  spec.subpw = {16, 16};
  EXPECT_LE(run_spec(spec, 3, 7), core::gemm_tolerance(32));
}

TEST(RandomSpecs, SingleCellSpec) {
  partition::PartitionSpec spec;
  spec.n = 17;
  spec.subplda = 1;
  spec.subpldb = 1;
  spec.subp = {0};
  spec.subph = {17};
  spec.subpw = {17};
  EXPECT_LE(run_spec(spec, 2, 8), core::gemm_tolerance(17));
}

TEST(RandomSpecs, CheckerboardSpec) {
  // Alternating ownership: every row and column needs both processors.
  partition::PartitionSpec spec;
  spec.n = 24;
  spec.subplda = 4;
  spec.subpldb = 4;
  spec.subph = {6, 6, 6, 6};
  spec.subpw = {6, 6, 6, 6};
  spec.subp.resize(16);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      spec.subp[static_cast<std::size_t>(i * 4 + j)] = (i + j) % 2;
    }
  }
  EXPECT_LE(run_spec(spec, 2, 9), core::gemm_tolerance(24));
}

TEST(RandomShapesUnderRandomSpeeds, EndToEndVerification) {
  util::Rng rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    core::ExperimentConfig config;
    std::vector<double> speeds;
    for (int i = 0; i < 3; ++i) speeds.push_back(rng.uniform(0.3, 4.0));
    config.platform = device::Platform::synthetic(speeds);
    config.cpm_speeds = speeds;
    config.n = rng.uniform_int(24, 200);
    config.shape = partition::all_shapes()[static_cast<std::size_t>(
        rng.uniform_int(0, 3))];
    config.numeric = true;
    config.seed = 1000 + trial;
    const auto res = core::run_pmm(config);
    EXPECT_TRUE(res.verified)
        << partition::shape_name(config.shape) << " n=" << config.n
        << " err=" << res.max_abs_error;
  }
}

TEST(RandomSpecs, NrrpSpecsComputeCorrectProducts) {
  // NRRP emits arbitrary-p non-rectangular layouts; SummaGen must be
  // correct over them (this is the paper's "future work" path made real).
  util::Rng rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t n = rng.uniform_int(32, 128);
    const int p = static_cast<int>(rng.uniform_int(2, 6));
    std::vector<double> speeds;
    for (int i = 0; i < p; ++i) speeds.push_back(rng.uniform(0.2, 5.0));
    const auto areas = partition::partition_areas_cpm(n * n, speeds);
    const auto spec = partition::nrrp_partition(n, areas);
    const double err = run_spec(spec, p, 9000 + trial);
    EXPECT_LE(err, core::gemm_tolerance(n))
        << "trial " << trial << " p=" << p << " n=" << n;
  }
}

TEST(Invariants, FlopsConservedAcrossShapes) {
  // Whatever the shape, the summed per-rank flops equal 2 n^3.
  const std::int64_t n = 640;
  for (auto s : partition::all_shapes()) {
    core::ExperimentConfig config;
    config.n = n;
    config.shape = s;
    config.cpm_speeds = {1.0, 2.0, 0.9};
    const auto res = core::run_pmm(config);
    std::int64_t flops = 0;
    for (const auto& rep : res.reports) flops += rep.flops;
    EXPECT_EQ(flops, 2 * n * n * n) << partition::shape_name(s);
  }
}

TEST(Invariants, BcastBytesConsistentAcrossParticipants) {
  // Every broadcast is counted by each participant; with 3 ranks the
  // per-rank byte counts must all equal the traffic of the rows/cols the
  // rank participates in — and ranks sharing all groups see equal counts.
  core::ExperimentConfig config;
  config.n = 512;
  config.shape = partition::Shape::kOneDimensional;  // all share all groups
  config.cpm_speeds = {1.0, 1.0, 1.0};
  const auto res = core::run_pmm(config);
  // 1D: rows are single-owner? No — one row spanning all columns, so the
  // row group is everyone; columns are single-owner. Everyone participates
  // in the same broadcasts.
  EXPECT_EQ(res.reports[0].bcast_bytes, res.reports[1].bcast_bytes);
  EXPECT_EQ(res.reports[1].bcast_bytes, res.reports[2].bcast_bytes);
  EXPECT_GT(res.reports[0].bcasts, 0);
}

}  // namespace
}  // namespace summagen

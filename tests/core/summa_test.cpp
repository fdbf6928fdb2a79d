#include "src/core/summa.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/core/reference.hpp"
#include "src/device/platform.hpp"
#include "src/util/rng.hpp"
#include "tests/core/run_digest.hpp"

namespace summagen::core {
namespace {

double run_summa(std::int64_t n, const SummaConfig& config,
                 std::uint64_t seed) {
  const int p = config.pr * config.pc;
  const auto platform = device::Platform::homogeneous(p);
  const auto processors = platform.processors();
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, util::derive_seed(seed, 1));
  util::fill_random(b, util::derive_seed(seed, 2));
  std::vector<std::unique_ptr<SummaLocalData>> locals;
  for (int r = 0; r < p; ++r) {
    locals.push_back(std::make_unique<SummaLocalData>(n, config, r, a, b));
  }
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  sgmpi::Runtime runtime(mpi_config);
  runtime.run([&](sgmpi::Comm& world) {
    summa_rank(world, n, config,
               processors[static_cast<std::size_t>(world.rank())],
               locals[static_cast<std::size_t>(world.rank())].get());
  });
  util::Matrix c(n, n);
  for (int r = 0; r < p; ++r) locals[static_cast<std::size_t>(r)]->gather_c(c);
  return util::Matrix::max_abs_diff(c, reference_multiply(a, b));
}

TEST(SummaBlocks, BalancedSplitCoversMatrix) {
  const SummaConfig config{3, 2, 64};
  std::int64_t area = 0;
  for (int r = 0; r < 6; ++r) {
    const auto b = summa_block(100, config, r);
    area += b.rows * b.cols;
    EXPECT_GT(b.rows, 0);
    EXPECT_GT(b.cols, 0);
  }
  EXPECT_EQ(area, 100 * 100);
  // Uneven split: 100 over 3 rows -> 34, 33, 33.
  EXPECT_EQ(summa_block(100, config, 0).rows, 34);
  EXPECT_EQ(summa_block(100, config, 5).rows, 33);
}

TEST(SummaBlocks, RejectsBadInput) {
  EXPECT_THROW(summa_block(0, {2, 2, 64}, 0), std::invalid_argument);
  EXPECT_THROW(summa_block(16, {2, 2, 64}, 4), std::invalid_argument);
  EXPECT_THROW(summa_block(16, {0, 2, 64}, 0), std::invalid_argument);
  EXPECT_THROW(summa_block(16, {2, 2, 0}, 0), std::invalid_argument);
  EXPECT_THROW(summa_block(4, {8, 1, 1}, 0), std::invalid_argument);
}

// ctest names each instance after gtest's byte dump of its case, size
// included. The case carries its seed, which keeps it at 32 bytes and the
// instance names stable.
struct SummaCase {
  std::int64_t n;
  SummaConfig config;
  std::uint64_t seed = 99;  ///< seed of A and B
};

class SummaCorrectness : public ::testing::TestWithParam<SummaCase> {};

TEST_P(SummaCorrectness, MatchesReference) {
  const auto& c = GetParam();
  EXPECT_LE(run_summa(c.n, c.config, c.seed), gemm_tolerance(c.n))
      << "n=" << c.n << " grid=" << c.config.pr << "x" << c.config.pc
      << " panel=" << c.config.panel;
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndPanels, SummaCorrectness,
    ::testing::Values(SummaCase{64, {1, 1, 16}},    // serial degenerate
                      SummaCase{64, {2, 2, 16}},    // square grid
                      SummaCase{64, {2, 2, 64}},    // single panel
                      SummaCase{64, {2, 2, 7}},     // panel !| n
                      SummaCase{100, {3, 2, 17}},   // uneven blocks
                      SummaCase{100, {2, 3, 100}},  // wide grid, full panel
                      SummaCase{96, {4, 1, 32}},    // column of processors
                      SummaCase{96, {1, 4, 32}},    // row of processors
                      SummaCase{129, {3, 3, 40}}),  // prime-ish everything
    [](const auto& param_info) {
      const auto& c = param_info.param;
      return "n" + std::to_string(c.n) + "_g" + std::to_string(c.config.pr) +
             "x" + std::to_string(c.config.pc) + "_b" +
             std::to_string(c.config.panel);
    });

TEST(Summa, ModeledPlaneCountsTrafficWithoutData) {
  const SummaConfig config{2, 2, 32};
  const auto platform = device::Platform::homogeneous(4);
  const auto processors = platform.processors();
  sgmpi::Config mpi_config;
  mpi_config.nranks = 4;
  sgmpi::Runtime runtime(mpi_config);
  std::vector<SummaReport> reports(4);
  runtime.run([&](sgmpi::Comm& world) {
    reports[static_cast<std::size_t>(world.rank())] =
        summa_rank(world, 128, config,
                   processors[static_cast<std::size_t>(world.rank())],
                   nullptr);
  });
  for (const auto& r : reports) {
    EXPECT_EQ(r.steps, 4);
    EXPECT_GT(r.bcasts, 0);
    EXPECT_GT(r.bcast_bytes, 0);
    EXPECT_GT(r.mpi_time_s, 0.0);
    // Every rank computes its 64x64 block over k=128.
    EXPECT_EQ(r.flops, 2LL * 64 * 64 * 128);
  }
  EXPECT_GT(runtime.max_vtime(), 0.0);
}

TEST(Summa, SmallerPanelsMeanMoreSmallerBroadcasts) {
  const auto platform = device::Platform::homogeneous(4);
  const auto processors = platform.processors();
  auto run = [&](std::int64_t panel) {
    sgmpi::Config mpi_config;
    mpi_config.nranks = 4;
    sgmpi::Runtime runtime(mpi_config);
    SummaReport rep;
    runtime.run([&](sgmpi::Comm& world) {
      const auto r = summa_rank(world, 256, {2, 2, panel},
                                processors[static_cast<std::size_t>(
                                    world.rank())],
                                nullptr);
      if (world.rank() == 0) rep = r;
    });
    return rep;
  };
  const auto coarse = run(256);
  const auto fine = run(32);
  EXPECT_GT(fine.bcasts, coarse.bcasts);
  // Same total payload either way.
  EXPECT_EQ(fine.bcast_bytes, coarse.bcast_bytes);
  // More messages, more latency terms.
  EXPECT_GT(fine.mpi_time_s, coarse.mpi_time_s);
}

/// Digest of one SUMMA run with events recorded, on scalar-tier
/// processors whose speeds cycle 1, 1.5, 2 (so ranks idle at the
/// broadcasts): every rank's clock and report, the event log, and for a
/// numeric run the gathered C.
std::uint64_t summa_digest(std::int64_t n, const SummaConfig& config,
                           bool numeric) {
  const int p = config.pr * config.pc;
  std::vector<double> speeds;
  for (int r = 0; r < p; ++r) speeds.push_back(1.0 + 0.5 * (r % 3));
  const auto processors = device::Platform::synthetic(speeds).processors(
      {.tier = blas::SimdTier::kScalar});
  std::vector<std::unique_ptr<SummaLocalData>> locals;
  if (numeric) {
    util::Matrix a(n, n), b(n, n);
    util::fill_random(a, util::derive_seed(41, 1));
    util::fill_random(b, util::derive_seed(41, 2));
    for (int r = 0; r < p; ++r) {
      locals.push_back(std::make_unique<SummaLocalData>(n, config, r, a, b));
    }
  }
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  mpi_config.record_events = true;
  sgmpi::Runtime runtime(mpi_config);
  std::vector<SummaReport> reports(static_cast<std::size_t>(p));
  runtime.run([&](sgmpi::Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    reports[r] = summa_rank(world, n, config, processors[r],
                            numeric ? locals[r].get() : nullptr);
  });
  RunDigest digest;
  for (int r = 0; r < p; ++r) {
    const SummaReport& rep = reports[static_cast<std::size_t>(r)];
    digest.add(runtime.clock(r));
    digest.add(std::int64_t{rep.steps});
    digest.add(std::int64_t{rep.bcasts});
    digest.add(rep.bcast_bytes);
    digest.add(rep.mpi_time_s);
    digest.add(rep.flops);
  }
  digest.add(runtime.events());
  if (numeric) {
    util::Matrix c(n, n);
    for (const auto& local : locals) local->gather_c(c);
    digest.add(c);
  }
  return digest.value();
}

TEST(Summa, RunUnchangedFromParent) {
  // Digests pinned from the step-chain task-graph execution the panel
  // loop replaced: the same broadcasts, kernels, clocks and events in the
  // same order, and the same C bits.
  struct Pin {
    std::int64_t n;
    SummaConfig config;
    bool numeric;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {100, {2, 3, 32}, true, 0xed08a3b1c9c53cd2ull},
      // One-rank rows, then one-rank columns: mirror images with the same
      // clocks, events and C, hence one digest.
      {97, {3, 1, 10}, true, 0xc292932bc1cf319eull},
      {97, {1, 3, 10}, true, 0xc292932bc1cf319eull},
      {16384, {16, 16, 2048}, false, 0xb0676d3ba91b0021ull},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t got = summa_digest(pin.n, pin.config, pin.numeric);
    EXPECT_EQ(got, pin.digest)
        << "n=" << pin.n << " grid=" << pin.config.pr << "x" << pin.config.pc
        << " panel=" << pin.config.panel << ": digest 0x" << std::hex << got;
  }
}

TEST(Summa, WorldSizeMismatchThrows) {
  const auto platform = device::Platform::homogeneous(3);
  const auto processors = platform.processors();
  sgmpi::Config mpi_config;
  mpi_config.nranks = 3;
  sgmpi::Runtime runtime(mpi_config);
  EXPECT_THROW(runtime.run([&](sgmpi::Comm& world) {
    summa_rank(world, 64, {2, 2, 16},
               processors[static_cast<std::size_t>(world.rank())], nullptr);
  }),
               std::invalid_argument);
}

}  // namespace
}  // namespace summagen::core

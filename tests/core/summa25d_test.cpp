#include "src/core/summa25d.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/core/reference.hpp"
#include "src/device/platform.hpp"
#include "src/util/rng.hpp"
#include "tests/core/run_digest.hpp"

namespace summagen::core {
namespace {

struct RunOutcome {
  double error = 0.0;
  std::vector<Summa25dReport> reports;
};

RunOutcome run_25d(std::int64_t n, const Summa25dConfig& config,
                   std::uint64_t seed) {
  const int p = config.q * config.q * config.c;
  const auto platform = device::Platform::homogeneous(p);
  const auto processors = platform.processors();
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, util::derive_seed(seed, 1));
  util::fill_random(b, util::derive_seed(seed, 2));
  std::vector<std::unique_ptr<Summa25dLocalData>> locals;
  for (int r = 0; r < p; ++r) {
    locals.push_back(
        std::make_unique<Summa25dLocalData>(n, config, r, a, b));
  }
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  sgmpi::Runtime runtime(mpi_config);
  RunOutcome outcome;
  outcome.reports.resize(static_cast<std::size_t>(p));
  runtime.run([&](sgmpi::Comm& world) {
    outcome.reports[static_cast<std::size_t>(world.rank())] = summa25d_rank(
        world, n, config, processors[static_cast<std::size_t>(world.rank())],
        locals[static_cast<std::size_t>(world.rank())].get());
  });
  util::Matrix c(n, n);
  for (int r = 0; r < config.q * config.q; ++r) {
    locals[static_cast<std::size_t>(r)]->gather_c(c);
  }
  outcome.error = util::Matrix::max_abs_diff(c, reference_multiply(a, b));
  return outcome;
}

// ctest names each instance after gtest's byte dump of its case, size
// included. The case carries its seed, which keeps it at 32 bytes and the
// instance names stable.
struct Case {
  std::int64_t n;
  Summa25dConfig config;
  std::uint64_t seed = 17;  ///< seed of A and B
};

class Summa25dCorrectness : public ::testing::TestWithParam<Case> {};

TEST_P(Summa25dCorrectness, MatchesReference) {
  const auto& c = GetParam();
  const auto outcome = run_25d(c.n, c.config, c.seed);
  EXPECT_LE(outcome.error, gemm_tolerance(c.n))
      << "n=" << c.n << " q=" << c.config.q << " c=" << c.config.c;
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndLayers, Summa25dCorrectness,
    ::testing::Values(Case{64, {1, 1, 16}},   // serial
                      Case{64, {2, 1, 16}},   // plain SUMMA grid
                      Case{64, {2, 2, 16}},   // one replica layer
                      Case{64, {2, 4, 8}},    // deep stack
                      Case{60, {2, 3, 7}},    // nothing divides anything
                      Case{96, {3, 2, 32}},   // 3x3 grid, 2 layers
                      Case{64, {1, 4, 16}}),  // degenerate 1x1 grid, layers
    [](const auto& param_info) {
      const auto& c = param_info.param;
      return "n" + std::to_string(c.n) + "_q" + std::to_string(c.config.q) +
             "_c" + std::to_string(c.config.c) + "_b" +
             std::to_string(c.config.panel);
    });

TEST(Summa25d, ReplicationCutsPanelTraffic) {
  // At equal total processor count, trading grid area for layers divides
  // each rank's SUMMA broadcast traffic (the 2.5D bandwidth win).
  const std::int64_t n = 256;
  const auto flat = run_25d(n, {4, 1, 32}, 3);    // 16 ranks, no layers
  const auto stacked = run_25d(n, {2, 4, 32}, 3); // 16 ranks, 4 layers
  EXPECT_LE(stacked.error, gemm_tolerance(n));
  // Compare the max per-rank panel-broadcast bytes.
  auto max_bytes = [](const RunOutcome& o) {
    std::int64_t m = 0;
    for (const auto& r : o.reports) m = std::max(m, r.bcast_bytes);
    return m;
  };
  EXPECT_LT(max_bytes(stacked), max_bytes(flat));
  // And the layers pay replication + reduction instead.
  EXPECT_GT(stacked.reports[0].replication_bytes, 0);
  EXPECT_GT(stacked.reports[0].reduce_bytes, 0);
  EXPECT_EQ(flat.reports[0].replication_bytes, 0);
}

TEST(Summa25d, FlopsConservedAcrossConfigs) {
  const std::int64_t n = 120;
  for (const auto& config :
       {Summa25dConfig{2, 1, 32}, Summa25dConfig{2, 2, 32},
        Summa25dConfig{2, 3, 32}}) {
    const auto outcome = run_25d(n, config, 5);
    std::int64_t flops = 0;
    for (const auto& r : outcome.reports) flops += r.flops;
    EXPECT_EQ(flops, 2 * n * n * n) << "c=" << config.c;
  }
}

TEST(Summa25d, ModeledPlaneRuns) {
  const Summa25dConfig config{2, 2, 64};
  const auto platform = device::Platform::homogeneous(8);
  const auto processors = platform.processors();
  sgmpi::Config mpi_config;
  mpi_config.nranks = 8;
  sgmpi::Runtime runtime(mpi_config);
  runtime.run([&](sgmpi::Comm& world) {
    const auto rep = summa25d_rank(
        world, 512, config,
        processors[static_cast<std::size_t>(world.rank())], nullptr);
    EXPECT_GT(rep.flops, 0);
    EXPECT_GT(rep.mpi_time_s, 0.0);
  });
  EXPECT_GT(runtime.max_vtime(), 0.0);
}

TEST(Summa25d, HeterogeneousProcessorsStillCorrect) {
  // The grid algorithms don't balance load across heterogeneous devices,
  // but they must stay numerically correct on them.
  const std::int64_t n = 64;
  const Summa25dConfig config{2, 2, 16};
  const auto platform =
      device::Platform::synthetic({1.0, 3.0, 0.5, 2.0, 1.5, 1.0, 0.7, 2.5});
  const auto processors = platform.processors();
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, 1);
  util::fill_random(b, 2);
  std::vector<std::unique_ptr<Summa25dLocalData>> locals;
  for (int r = 0; r < 8; ++r) {
    locals.push_back(std::make_unique<Summa25dLocalData>(n, config, r, a, b));
  }
  sgmpi::Config mpi_config;
  mpi_config.nranks = 8;
  sgmpi::Runtime runtime(mpi_config);
  runtime.run([&](sgmpi::Comm& world) {
    summa25d_rank(world, n, config,
                  processors[static_cast<std::size_t>(world.rank())],
                  locals[static_cast<std::size_t>(world.rank())].get());
  });
  util::Matrix c(n, n);
  for (int r = 0; r < 4; ++r) locals[static_cast<std::size_t>(r)]->gather_c(c);
  EXPECT_LE(util::Matrix::max_abs_diff(c, reference_multiply(a, b)),
            gemm_tolerance(n));
  // The slow device's clock dominates the makespan.
  EXPECT_GT(runtime.max_vtime(), 0.0);
}

/// Digest of one 2.5D run with events recorded, on scalar-tier processors
/// whose speeds cycle 1, 1.5, 2: every rank's clock and report, the event
/// log, and for a numeric run the C gathered from layer 0.
std::uint64_t summa25d_digest(std::int64_t n, const Summa25dConfig& config,
                              bool numeric) {
  const int per_layer = config.q * config.q;
  const int p = per_layer * config.c;
  std::vector<double> speeds;
  for (int r = 0; r < p; ++r) speeds.push_back(1.0 + 0.5 * (r % 3));
  const auto processors = device::Platform::synthetic(speeds).processors(
      {.tier = blas::SimdTier::kScalar});
  std::vector<std::unique_ptr<Summa25dLocalData>> locals;
  if (numeric) {
    util::Matrix a(n, n), b(n, n);
    util::fill_random(a, util::derive_seed(43, 1));
    util::fill_random(b, util::derive_seed(43, 2));
    for (int r = 0; r < p; ++r) {
      locals.push_back(
          std::make_unique<Summa25dLocalData>(n, config, r, a, b));
    }
  }
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  mpi_config.record_events = true;
  sgmpi::Runtime runtime(mpi_config);
  std::vector<Summa25dReport> reports(static_cast<std::size_t>(p));
  runtime.run([&](sgmpi::Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    reports[r] = summa25d_rank(world, n, config, processors[r],
                               numeric ? locals[r].get() : nullptr);
  });
  RunDigest digest;
  for (int r = 0; r < p; ++r) {
    const Summa25dReport& rep = reports[static_cast<std::size_t>(r)];
    digest.add(runtime.clock(r));
    digest.add(std::int64_t{rep.steps});
    digest.add(std::int64_t{rep.bcasts});
    digest.add(rep.bcast_bytes);
    digest.add(rep.replication_bytes);
    digest.add(rep.reduce_bytes);
    digest.add(rep.mpi_time_s);
    digest.add(rep.flops);
  }
  digest.add(runtime.events());
  if (numeric) {
    util::Matrix c(n, n);
    for (int r = 0; r < per_layer; ++r) {
      locals[static_cast<std::size_t>(r)]->gather_c(c);
    }
    digest.add(c);
  }
  return digest.value();
}

TEST(Summa25d, RunUnchangedFromParent) {
  // Digests pinned from the task-graph execution (replication, step chain,
  // reduction) the panel loop replaced.
  struct Pin {
    std::int64_t n;
    Summa25dConfig config;
    bool numeric;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {60, {2, 3, 7}, true, 0x2b0fd6a61982ff85ull},
      {61, {3, 1, 9}, true, 0xfb438b4623a1fd77ull},  // one layer: SUMMA
      {64, {1, 4, 5}, true, 0xfce9bd1296424fb2ull},  // one-rank layers
      {16384, {8, 4, 512}, false, 0x0adaae449be4d7a2ull},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t got = summa25d_digest(pin.n, pin.config, pin.numeric);
    EXPECT_EQ(got, pin.digest)
        << "n=" << pin.n << " q=" << pin.config.q << " c=" << pin.config.c
        << " panel=" << pin.config.panel << ": digest 0x" << std::hex << got;
  }
}

TEST(Summa25d, RejectsBadConfigs) {
  const auto platform = device::Platform::homogeneous(4);
  const auto processors = platform.processors();
  sgmpi::Config mpi_config;
  mpi_config.nranks = 4;
  sgmpi::Runtime runtime(mpi_config);
  EXPECT_THROW(runtime.run([&](sgmpi::Comm& world) {
    summa25d_rank(world, 64, {2, 2, 16},  // needs 8 ranks, world has 4
                  processors[static_cast<std::size_t>(world.rank())],
                  nullptr);
  }),
               std::invalid_argument);

  util::Matrix a(8, 8), b(8, 8);
  EXPECT_THROW(Summa25dLocalData(8, {0, 1, 1}, 0, a, b),
               std::invalid_argument);
  EXPECT_THROW(Summa25dLocalData(8, {2, 1, 1}, 99, a, b),
               std::invalid_argument);
}

TEST(Summa25d, NonZeroLayerGatherRejected) {
  util::Matrix a(16, 16), b(16, 16);
  Summa25dLocalData local(16, {2, 2, 4}, /*rank=*/5, a, b);
  EXPECT_FALSE(local.on_layer_zero());
  util::Matrix c(16, 16);
  EXPECT_THROW(local.gather_c(c), std::logic_error);
}

}  // namespace
}  // namespace summagen::core

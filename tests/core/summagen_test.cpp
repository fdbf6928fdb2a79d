// End-to-end correctness of the SummaGen algorithm on the numeric plane:
// for every shape, every regime and a spread of sizes, the distributed
// product must match the serial reference; and its runs are pinned bit for
// bit (clocks, reports, events, C) against digests of an earlier build.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/core/dataplane.hpp"
#include "src/core/reference.hpp"
#include "src/core/runner.hpp"
#include "src/core/summagen.hpp"
#include "src/partition/areas.hpp"
#include "src/partition/nrrp.hpp"
#include "src/partition/shapes.hpp"
#include "src/trace/stats.hpp"
#include "src/util/rng.hpp"
#include "tests/core/run_digest.hpp"

namespace summagen {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::Regime;
using core::RunDigest;
using core::Scheduler;
using partition::Shape;

ExperimentConfig numeric_config(Shape shape, std::int64_t n) {
  ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = n;
  config.shape = shape;
  config.regime = Regime::kConstant;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.numeric = true;
  return config;
}

class AllShapesNumeric
    : public ::testing::TestWithParam<std::tuple<Shape, std::int64_t>> {};

TEST_P(AllShapesNumeric, MatchesSerialReference) {
  const auto [shape, n] = GetParam();
  const ExperimentResult res = core::run_pmm(numeric_config(shape, n));
  EXPECT_TRUE(res.verified)
      << partition::shape_name(shape) << " n=" << n
      << " max_abs_error=" << res.max_abs_error;
  EXPECT_GT(res.exec_time_s, 0.0);
  EXPECT_GT(res.comp_time_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllShapesNumeric,
    ::testing::Combine(::testing::Values(Shape::kSquareCorner,
                                         Shape::kSquareRectangle,
                                         Shape::kBlockRectangle,
                                         Shape::kOneDimensional),
                       ::testing::Values<std::int64_t>(16, 64, 129, 256)),
    [](const auto& param_info) {
      return std::string(
                 partition::shape_name(std::get<0>(param_info.param))) +
             "_n" + std::to_string(std::get<1>(param_info.param));
    });

class PanelledBroadcasts : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PanelledBroadcasts, SameResultSameBytesMoreMessages) {
  // The paper's block size r as a broadcast panel: identical numerics and
  // total traffic, more messages (and so more modeled latency).
  ExperimentConfig whole = numeric_config(Shape::kSquareCorner, 160);
  ExperimentConfig panelled = whole;
  panelled.summagen_options.bcast_panel_rows = GetParam();

  const auto a = core::run_pmm(whole);
  const auto b = core::run_pmm(panelled);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  std::int64_t bytes_a = 0, bytes_b = 0;
  int msgs_a = 0, msgs_b = 0;
  for (const auto& rep : a.reports) {
    bytes_a += rep.bcast_bytes;
    msgs_a += rep.bcasts;
  }
  for (const auto& rep : b.reports) {
    bytes_b += rep.bcast_bytes;
    msgs_b += rep.bcasts;
  }
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_GT(msgs_b, msgs_a);
  EXPECT_GE(b.comm_time_s, a.comm_time_s);  // extra latency terms
}

INSTANTIATE_TEST_SUITE_P(PanelRows, PanelledBroadcasts,
                         ::testing::Values<std::int64_t>(1, 7, 32),
                         [](const auto& param_info) {
                           std::string name = "r";
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(SummaGenFpm, NumericFpmRegimeVerifies) {
  ExperimentConfig config = numeric_config(Shape::kSquareRectangle, 192);
  config.regime = Regime::kFunctional;
  config.cpm_speeds.clear();
  const ExperimentResult res = core::run_pmm(config);
  EXPECT_TRUE(res.verified) << res.max_abs_error;
}

TEST(SummaGenMetrics, ShapesAgreeUnderConstantSpeeds) {
  // The headline Figure 6a property: with constant speeds, in the paper's
  // constant problem-size range, all four shapes take roughly the same
  // (modeled) time — the paper reports an average spread of 8% and a
  // maximum of 23%.
  std::vector<double> times;
  for (Shape s : partition::all_shapes()) {
    ExperimentConfig config = numeric_config(s, 0);
    config.n = 30720;
    config.numeric = false;
    times.push_back(core::run_pmm(config).exec_time_s);
  }
  EXPECT_LT(trace::percentage_spread(times), 25.0);
}

/// Digest of one summagen_rank execution of `spec` with events recorded:
/// every rank's clock and RankReport, the event log and, on the numeric
/// plane, the C it computed in place.
std::uint64_t summagen_digest(
    const partition::PartitionSpec& spec,
    const std::vector<device::AbstractProcessor>& processors, bool numeric,
    const core::SummaGenOptions& options) {
  const int p = spec.nprocs();
  const std::int64_t n = spec.n;
  util::Matrix a, b, c;
  core::RunStores stores;  // empty on the modeled plane
  if (numeric) {
    a = util::Matrix(n, n);
    b = util::Matrix(n, n);
    c = util::Matrix(n, n);
    util::fill_random(a, util::derive_seed(43, 1));
    util::fill_random(b, util::derive_seed(43, 2));
    stores = core::RunStores(spec, p, a, b, &c);
  }
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  mpi_config.record_events = true;
  sgmpi::Runtime runtime(mpi_config);
  std::vector<core::RankReport> reports(static_cast<std::size_t>(p));
  runtime.run([&](sgmpi::Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    reports[r] = core::summagen_rank(world, spec, processors[r],
                                     stores.at(world.rank()),
                                     /*contended=*/true, options);
  });
  RunDigest digest;
  for (int r = 0; r < p; ++r) {
    const core::RankReport& rep = reports[static_cast<std::size_t>(r)];
    digest.add(runtime.clock(r));
    digest.add(std::int64_t{rep.bcasts});
    digest.add(rep.bcast_bytes);
    digest.add(rep.mpi_time_s);
    digest.add(std::int64_t{rep.gemm_calls});
    digest.add(rep.flops);
    digest.add(rep.kernel_compute_s);
    digest.add(rep.kernel_transfer_s);
    digest.add(rep.hidden_comm_s);
  }
  digest.add(runtime.events());
  if (numeric) digest.add(c);
  return digest.value();
}

/// Digest of a fault-tolerant run_pmm: its times and per-rank times, the
/// verify error, the recovery count and the redistributed area.
std::uint64_t crash_digest(Shape shape) {
  ExperimentConfig config = numeric_config(shape, 512);
  config.kernel.tier = blas::SimdTier::kScalar;
  config.summagen_options.scheduler = Scheduler::kTaskGraph;
  config.faults = sgmpi::parse_fault_plan("crash@0.0005:1");
  const ExperimentResult res = core::run_pmm(config);
  EXPECT_TRUE(res.verified) << partition::shape_name(shape);
  EXPECT_EQ(res.recoveries, 1) << partition::shape_name(shape);
  RunDigest digest;
  for (const double t : {res.exec_time_s, res.comp_time_s, res.comm_time_s,
                         res.hidden_comm_time_s}) {
    digest.add(t);
  }
  for (const std::vector<double>* times :
       {&res.rank_exec_s, &res.rank_comp_s, &res.rank_comm_s,
        &res.rank_idle_s, &res.rank_hidden_s}) {
    for (const double t : *times) digest.add(t);
  }
  digest.add(res.max_abs_error);
  digest.add(std::int64_t{res.recoveries});
  digest.add(res.redistributed_area);
  return digest.value();
}

TEST(SummaGen, RunUnchangedFromParent) {
  // Digests pinned from the data plane that landed every block of a
  // rank's rows and columns in full-width WA/WB workspaces, its own blocks
  // included. Reading owned blocks in place and splitting each DGEMM at
  // block boundaries must leave every clock, report, event and bit of C
  // as it was. Every numeric run uses the scalar tier, so the pins hold
  // under SUMMAGEN_FORCE_SCALAR=1 too.
  std::vector<std::pair<std::string, std::uint64_t>> got;

  // Numeric: the paper's node at n = 203 (odd, so no block ends on a
  // 64-byte line) over 4 shapes x both schedulers x whole and panelled
  // broadcasts.
  const std::int64_t n = 203;
  const auto node = device::Platform::hclserver1().processors(
      {.tier = blas::SimdTier::kScalar});
  const auto areas = partition::partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  for (const Shape shape : partition::all_shapes()) {
    const auto spec = partition::build_shape(shape, n, areas);
    for (const Scheduler sched : {Scheduler::kEager, Scheduler::kTaskGraph}) {
      for (const std::int64_t panel : {std::int64_t{0}, std::int64_t{64}}) {
        core::SummaGenOptions options;
        options.scheduler = sched;
        options.bcast_panel_rows = panel;
        got.emplace_back(std::string(partition::shape_name(shape)) + " " +
                             core::to_string(sched) + " panel " +
                             std::to_string(panel),
                         summagen_digest(spec, node, true, options));
      }
    }
  }

  // Modeled: NRRP p = 64 on processors whose speeds cycle 1, 1.5, 2, so
  // ranks idle at the broadcasts.
  const std::int64_t big = 4096;
  std::vector<double> speeds;
  for (int r = 0; r < 64; ++r) speeds.push_back(1.0 + 0.5 * (r % 3));
  const auto nrrp = partition::nrrp_partition(
      big, partition::partition_areas_cpm(big * big, speeds));
  const auto cluster = device::Platform::synthetic(speeds).processors();
  for (const Scheduler sched : {Scheduler::kEager, Scheduler::kTaskGraph}) {
    core::SummaGenOptions options;
    options.scheduler = sched;
    got.emplace_back(std::string("nrrp p=64 ") + core::to_string(sched),
                     summagen_digest(nrrp, cluster, false, options));
  }

  // Crash: a rank lost mid-run, the survivors re-partition and re-run
  // the unfinished cells under the dataflow scheduler.
  for (const Shape shape : partition::all_shapes()) {
    got.emplace_back(std::string(partition::shape_name(shape)) +
                         " crash@0.0005:1",
                     crash_digest(shape));
  }

  const std::uint64_t pinned[] = {
      // square_corner: eager panel 0, 64; taskgraph panel 0, 64
      0xe0205b81ea020037ull, 0xfd79c0d52fa27c39ull, 0xcb94156e09f8ac7dull,
      0x8c2af877840d7caaull,
      // square_rectangle
      0xd8764bc31f392549ull, 0x9c5477c3eb920d79ull, 0x945328c48f2a5889ull,
      0x7e86554cc443d196ull,
      // block_rectangle
      0xc420784e2dfa8c6dull, 0x43f234be513d7cb6ull, 0xdcef7c979ffdfa24ull,
      0x98f357a592c3a8e5ull,
      // one_dimensional
      0x4498cb290cf532deull, 0xc8db6b49309ccdf1ull, 0x852b51d0becd2ea7ull,
      0xb79c88866d7c76a2ull,
      // nrrp p=64: eager, taskgraph
      0x4b6c1afd78b6de92ull, 0x153d6fedd15fa41eull,
      // crash@0.0005:1: square_corner, square_rectangle, block_rectangle,
      // one_dimensional
      0xe421f5a2f0f256abull, 0xe0f35852970e9534ull, 0x47f8d05c1ce388f8ull,
      0x20cf2bddb57a958cull,
  };
  ASSERT_EQ(got.size(), std::size(pinned));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].second, pinned[i])
        << got[i].first << ": digest 0x" << std::hex << got[i].second;
  }
}

}  // namespace
}  // namespace summagen

// End-to-end correctness of the SummaGen algorithm on the numeric plane:
// for every shape, every regime and a spread of sizes, the distributed
// product must match the serial reference.
#include <gtest/gtest.h>

#include "src/core/reference.hpp"
#include "src/core/runner.hpp"
#include "src/trace/stats.hpp"

namespace summagen {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::Regime;
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

}  // namespace
}  // namespace summagen

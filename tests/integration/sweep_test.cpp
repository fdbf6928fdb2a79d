// Exhaustive configuration sweeps: every shape x regime x platform flavour
// x granularity, each verified numerically end to end. These are the
// "boring" combinations the targeted tests skip; running them all keeps
// refactors honest across the whole configuration space.
#include <gtest/gtest.h>

#include "src/core/runner.hpp"

namespace summagen {
namespace {

using core::ExperimentConfig;
using core::Regime;
using partition::Shape;

enum class PlatformKind { kHclServer1, kSynthetic, kHomogeneous };

const char* platform_name(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::kHclServer1:
      return "hclserver1";
    case PlatformKind::kSynthetic:
      return "synthetic";
    case PlatformKind::kHomogeneous:
      return "homogeneous";
  }
  return "?";
}

device::Platform make_platform(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::kHclServer1:
      return device::Platform::hclserver1();
    case PlatformKind::kSynthetic:
      return device::Platform::synthetic({1.4, 0.6, 2.2});
    case PlatformKind::kHomogeneous:
      return device::Platform::homogeneous(3);
  }
  throw std::logic_error("unreachable");
}

class FullConfigurationSweep
    : public ::testing::TestWithParam<
          std::tuple<Shape, Regime, PlatformKind>> {};

TEST_P(FullConfigurationSweep, NumericVerification) {
  const auto [shape, regime, kind] = GetParam();
  ExperimentConfig config;
  config.platform = make_platform(kind);
  config.n = 144;
  config.shape = shape;
  config.regime = regime;
  config.numeric = true;
  config.record_events = true;  // exercise tracing in every combination
  const auto res = core::run_pmm(config);
  EXPECT_TRUE(res.verified)
      << partition::shape_name(shape) << " on " << platform_name(kind)
      << " err=" << res.max_abs_error;
  EXPECT_GT(res.energy.dynamic_j, 0.0);
  // The spec always covers the matrix exactly.
  std::int64_t area = 0;
  for (int r = 0; r < 3; ++r) area += res.spec.area_of(r);
  EXPECT_EQ(area, config.n * config.n);
}

INSTANTIATE_TEST_SUITE_P(
    All, FullConfigurationSweep,
    ::testing::Combine(::testing::ValuesIn(partition::extended_shapes()),
                       ::testing::Values(Regime::kConstant,
                                         Regime::kFunctional),
                       ::testing::Values(PlatformKind::kHclServer1,
                                         PlatformKind::kSynthetic,
                                         PlatformKind::kHomogeneous)),
    [](const auto& param_info) {
      return std::string(
                 partition::shape_name(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) == Regime::kConstant ? "_cpm_"
                                                                 : "_fpm_") +
             platform_name(std::get<2>(param_info.param));
    });

class GranularitySweep
    : public ::testing::TestWithParam<std::tuple<Shape, std::int64_t>> {};

TEST_P(GranularitySweep, DimensionsSnapAndResultVerifies) {
  const auto [shape, granularity] = GetParam();
  ExperimentConfig config;
  config.platform = device::Platform::synthetic({1.0, 2.0, 0.9});
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.n = 192;
  config.shape = shape;
  config.granularity = granularity;
  config.numeric = true;
  const auto res = core::run_pmm(config);
  EXPECT_TRUE(res.verified) << partition::shape_name(shape);
  for (auto h : res.spec.subph) EXPECT_EQ(h % granularity, 0);
  for (auto w : res.spec.subpw) EXPECT_EQ(w % granularity, 0);
}

INSTANTIATE_TEST_SUITE_P(
    All, GranularitySweep,
    ::testing::Combine(::testing::ValuesIn(partition::extended_shapes()),
                       ::testing::Values<std::int64_t>(2, 16, 48)),
    [](const auto& param_info) {
      return std::string(
                 partition::shape_name(std::get<0>(param_info.param))) +
             "_g" + std::to_string(std::get<1>(param_info.param));
    });

class InterpolationSweep
    : public ::testing::TestWithParam<device::Interpolation> {};

TEST_P(InterpolationSweep, FpmPipelineWorksWithBothModels) {
  ExperimentConfig config;
  config.n = 160;
  config.shape = Shape::kBlockRectangle;
  config.regime = Regime::kFunctional;
  config.fpm_models =
      core::default_fpm_models(config.platform, config.n, GetParam());
  config.numeric = true;
  const auto res = core::run_pmm(config);
  EXPECT_TRUE(res.verified);
}

INSTANTIATE_TEST_SUITE_P(
    Models, InterpolationSweep,
    ::testing::Values(device::Interpolation::kPiecewiseLinear,
                      device::Interpolation::kAkima),
    [](const auto& param_info) {
      return param_info.param == device::Interpolation::kAkima
                 ? "akima"
                 : "piecewise_linear";
    });

class KernelSweep : public ::testing::TestWithParam<blas::GemmKernel> {};

TEST_P(KernelSweep, NumericPlaneWorksWithEveryKernel) {
  ExperimentConfig config;
  config.n = 96;
  config.shape = Shape::kSquareCorner;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.numeric = true;
  config.kernel.kernel = GetParam();
  config.kernel.threads = 2;
  const auto res = core::run_pmm(config);
  EXPECT_TRUE(res.verified);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelSweep,
    ::testing::Values(blas::GemmKernel::kNaive, blas::GemmKernel::kPacked),
    [](const auto& param_info) {
      return param_info.param == blas::GemmKernel::kNaive ? "naive"
                                                          : "packed";
    });

}  // namespace
}  // namespace summagen

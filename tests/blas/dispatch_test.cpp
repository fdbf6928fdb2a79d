// Dispatch-layer tests: tier parsing/availability and the force-scalar
// override, the tune-cache JSON round trip and block-size resolution.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "src/blas/gemm.hpp"
#include "src/blas/simd.hpp"
#include "src/blas/tune.hpp"
#include "src/util/matrix.hpp"

namespace summagen::blas {
namespace {

// RAII environment override (tests run single-threaded at the top level).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(SimdDispatch, ParseAndNameRoundTrip) {
  for (SimdTier t : {SimdTier::kAuto, SimdTier::kScalar, SimdTier::kSse2,
                     SimdTier::kAvx2}) {
    EXPECT_EQ(parse_simd_tier(simd_tier_name(t)), t);
  }
  EXPECT_THROW(parse_simd_tier("avx512"), std::invalid_argument);
  EXPECT_THROW(parse_simd_tier(""), std::invalid_argument);
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndAutoResolves) {
  EXPECT_TRUE(simd_tier_available(SimdTier::kScalar));
  const SimdTier best = best_simd_tier();
  EXPECT_TRUE(simd_tier_available(best));
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAuto), best);
  EXPECT_EQ(resolve_simd_tier(SimdTier::kScalar), SimdTier::kScalar);
}

TEST(SimdDispatch, ForceScalarCapsAvailability) {
  ScopedEnv force("SUMMAGEN_FORCE_SCALAR", "1");
  EXPECT_TRUE(force_scalar_requested());
  EXPECT_EQ(best_simd_tier(), SimdTier::kScalar);
  EXPECT_FALSE(simd_tier_available(SimdTier::kSse2));
  EXPECT_FALSE(simd_tier_available(SimdTier::kAvx2));
  // Explicitly requesting a vector tier under the override must fail
  // loudly rather than silently downgrade.
  if (simd_tier_compiled(SimdTier::kSse2)) {
    EXPECT_THROW(resolve_simd_tier(SimdTier::kSse2), std::invalid_argument);
  }
}

TEST(SimdDispatch, ForceScalarZeroMeansOff) {
  ScopedEnv force("SUMMAGEN_FORCE_SCALAR", "0");
  EXPECT_FALSE(force_scalar_requested());
}

TEST(SimdDispatch, UnavailableExplicitTierThrows) {
  for (SimdTier t : {SimdTier::kSse2, SimdTier::kAvx2}) {
    if (!simd_tier_available(t)) {
      EXPECT_THROW(resolve_simd_tier(t), std::invalid_argument);
    }
  }
}

TEST(TuneCache, JsonRoundTrip) {
  TuneFile file;
  file["Test CPU @ 3.2GHz"]["avx2"] = {{96, 2048, 256}, 31.5};
  file["Test CPU @ 3.2GHz"]["scalar"] = {{128, 4096, 256}, 10.8};
  file["Other \"quoted\" CPU"]["sse2"] = {{64, 512, 128}, 7.25};
  const std::string text = format_tune_file(file);
  TuneFile parsed;
  ASSERT_TRUE(parse_tune_file(text, &parsed));
  ASSERT_EQ(parsed.size(), 2u);
  const TuneRecord& avx2 = parsed["Test CPU @ 3.2GHz"]["avx2"];
  EXPECT_EQ(avx2.bs.mc, 96);
  EXPECT_EQ(avx2.bs.nc, 2048);
  EXPECT_EQ(avx2.bs.kc, 256);
  EXPECT_DOUBLE_EQ(avx2.gflops, 31.5);
  EXPECT_EQ(parsed["Other \"quoted\" CPU"]["sse2"].bs.kc, 128);
}

TEST(TuneCache, ParseRejectsMalformedAndToleratesUnknownFields) {
  TuneFile out;
  EXPECT_FALSE(parse_tune_file("", &out));
  EXPECT_FALSE(parse_tune_file("{\"cpus\": {", &out));
  EXPECT_FALSE(parse_tune_file("not json", &out));
  // Unknown top-level keys (version, future additions) are skipped.
  ASSERT_TRUE(parse_tune_file(
      R"({"version": 1, "future": [1, {"x": "}"}], "cpus":
         {"cpu": {"avx2": {"mc": 8, "nc": 16, "kc": 4, "gflops": 1.0}}}})",
      &out));
  EXPECT_EQ(out["cpu"]["avx2"].bs.mc, 8);
}

TEST(TuneCache, DefaultsArePositiveForEveryTier) {
  for (SimdTier t : {SimdTier::kAuto, SimdTier::kScalar, SimdTier::kSse2,
                     SimdTier::kAvx2}) {
    const BlockSizes bs = default_block_sizes(t);
    EXPECT_GT(bs.mc, 0);
    EXPECT_GT(bs.nc, 0);
    EXPECT_GT(bs.kc, 0);
  }
}

TEST(TuneCache, ResolveHonoursExplicitOverrides) {
  GemmOptions opts;
  opts.mc = 24;
  opts.nc = 96;
  opts.kc = 12;
  const BlockSizes bs = resolve_block_sizes(opts, SimdTier::kScalar);
  EXPECT_EQ(bs.mc, 24);
  EXPECT_EQ(bs.nc, 96);
  EXPECT_EQ(bs.kc, 12);
  // Partial overrides keep the remaining auto values positive.
  GemmOptions partial;
  partial.kc = 5;
  const BlockSizes pb = resolve_block_sizes(partial, SimdTier::kScalar);
  EXPECT_EQ(pb.kc, 5);
  EXPECT_GT(pb.mc, 0);
  EXPECT_GT(pb.nc, 0);
}

TEST(TuneCache, CpuModelKeyIsNonEmpty) {
  EXPECT_FALSE(cpu_model_key().empty());
}

TEST(GemmValidation, RejectsNegativeBlocking) {
  util::Matrix a(4, 4), b(4, 4), c(4, 4);
  GemmOptions bad_mc{.kernel = GemmKernel::kPacked, .mc = -1};
  EXPECT_THROW(dgemm(4, 4, 4, 1.0, a.data(), 4, b.data(), 4, 0.0, c.data(),
                     4, bad_mc),
               std::invalid_argument);
}

}  // namespace
}  // namespace summagen::blas

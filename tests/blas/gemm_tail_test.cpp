// Remainder-tail coverage for the dispatched packed kernel: every
// available SIMD tier is exercised over shapes that land on every fringe
// case of the five-loop scheme — M % MR, N % NR, K % KC leftovers, plus
// degenerate 1x1, 1xN and Mx1 problems — and compared to the naive oracle.
// Also pins the cross-tier bitwise contract: scalar == SSE2 exactly, and
// the scalar packed tier == kNaive exactly (alpha = 1, beta = 0), under any
// MC/NC/KC blocking and any thread width.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/blas/gemm.hpp"
#include "src/blas/simd.hpp"
#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"

namespace summagen::blas {
namespace {

using util::Matrix;

Matrix oracle(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::int64_t l = 0; l < a.cols(); ++l) acc += a(i, l) * b(l, j);
      c(i, j) = acc;
    }
  }
  return c;
}

double tol(std::int64_t k) { return 1e-12 * static_cast<double>(k + 1); }

std::vector<SimdTier> available_tiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2}) {
    if (simd_tier_available(t)) tiers.push_back(t);
  }
  return tiers;
}

// Fringe shapes: MR is 4 or 6 and NR is 4 or 8 depending on tier, so these
// cover zero and non-zero remainders against every microkernel shape; the
// kc=3 blocking override below makes K=8/35 hit K % KC tails too.
struct Shape {
  std::int64_t m, n, k;
};

const Shape kShapes[] = {
    {1, 1, 1},   {1, 1, 8},   {1, 13, 35},  {17, 1, 35}, {4, 8, 8},
    {6, 8, 8},   {5, 7, 3},   {23, 17, 35}, {24, 16, 8}, {25, 33, 35},
    {12, 24, 1}, {31, 9, 19},
};

TEST(GemmTail, AllTiersMatchOracleOnFringeShapes) {
  for (SimdTier tier : available_tiers()) {
    for (const Shape& s : kShapes) {
      Matrix a(s.m, s.k), b(s.k, s.n);
      util::fill_random(a, 21);
      util::fill_random(b, 22);
      const Matrix want = oracle(a, b);
      // Tiny MC/NC/KC force multiple outer blocks even on these small
      // problems, so every loop level sees both full and fringe trips.
      for (std::int64_t kc : {std::int64_t{3}, std::int64_t{256}}) {
        GemmOptions opts{.kernel = GemmKernel::kPacked, .tier = tier,
                         .mc = 8, .nc = 16, .kc = kc};
        const Matrix got = multiply(a, b, opts);
        EXPECT_LE(Matrix::max_abs_diff(got, want), tol(s.k))
            << simd_tier_name(tier) << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " kc=" << kc;
      }
    }
  }
}

TEST(GemmTail, ScalarTierBitIdenticalToNaiveUnderAnyBlocking) {
  Matrix a(29, 35), b(35, 21);
  util::fill_random(a, 23);
  util::fill_random(b, 24);
  const Matrix naive = multiply(a, b, {.kernel = GemmKernel::kNaive});
  for (std::int64_t kc : {std::int64_t{2}, std::int64_t{7},
                          std::int64_t{256}}) {
    for (int threads : {1, 3}) {
      GemmOptions opts{.kernel = GemmKernel::kPacked, .threads = threads,
                       .tier = SimdTier::kScalar, .mc = 4, .nc = 8,
                       .kc = kc};
      EXPECT_EQ(naive, multiply(a, b, opts)) << "kc=" << kc
                                             << " threads=" << threads;
    }
  }
}

TEST(GemmTail, Sse2TierBitIdenticalToScalar) {
  if (!simd_tier_available(SimdTier::kSse2)) {
    GTEST_SKIP() << "SSE2 tier not available on this host";
  }
  // SSE2 uses separate mulpd/addpd — same per-element roundings as the
  // scalar chain, so the results must agree to the bit on every fringe.
  for (const Shape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.k, s.n);
    util::fill_random(a, 25);
    util::fill_random(b, 26);
    const Matrix scalar = multiply(
        a, b, {.kernel = GemmKernel::kPacked, .tier = SimdTier::kScalar});
    const Matrix sse2 = multiply(
        a, b, {.kernel = GemmKernel::kPacked, .tier = SimdTier::kSse2});
    EXPECT_EQ(scalar, sse2) << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

TEST(GemmTail, EachTierDeterministicAcrossBlockingAndThreads) {
  // Within one tier, MC/NC/KC and the thread width must never change bits
  // (the per-element accumulation chain is invariant to them).
  Matrix a(26, 35), b(35, 18);
  util::fill_random(a, 27);
  util::fill_random(b, 28);
  for (SimdTier tier : available_tiers()) {
    const Matrix base = multiply(
        a, b, {.kernel = GemmKernel::kPacked, .threads = 1, .tier = tier});
    for (const auto& [mc, nc, kc] :
         std::vector<std::array<std::int64_t, 3>>{
             {8, 8, 5}, {64, 1024, 256}, {6, 16, 35}}) {
      GemmOptions opts{.kernel = GemmKernel::kPacked, .threads = 4,
                       .tier = tier, .mc = mc, .nc = nc, .kc = kc};
      EXPECT_EQ(base, multiply(a, b, opts))
          << simd_tier_name(tier) << " mc=" << mc << " nc=" << nc
          << " kc=" << kc;
    }
  }
}

TEST(GemmTail, BetaPathsOnFringeTiles) {
  // beta == 0 must overwrite (never read) C, including fringe tiles, and
  // beta == 1 must accumulate exactly, for every tier.
  for (SimdTier tier : available_tiers()) {
    const std::int64_t m = 7, n = 11, k = 9;
    Matrix a(m, k), b(k, n);
    util::fill_random(a, 29);
    util::fill_random(b, 30);
    const Matrix want = oracle(a, b);
    GemmOptions opts{.kernel = GemmKernel::kPacked, .tier = tier, .mc = 4,
                     .nc = 8, .kc = 4};

    Matrix c0(m, n);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        c0(i, j) = std::numeric_limits<double>::quiet_NaN();
      }
    }
    dgemm(m, n, k, 1.0, a.data(), k, b.data(), n, 0.0, c0.data(), n, opts);
    EXPECT_LE(Matrix::max_abs_diff(c0, want), tol(k))
        << simd_tier_name(tier) << " beta=0 over NaN";

    Matrix c1 = want;
    dgemm(m, n, k, 1.0, a.data(), k, b.data(), n, 1.0, c1.data(), n, opts);
    Matrix doubled = want;
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) doubled(i, j) *= 2.0;
    }
    EXPECT_LE(Matrix::max_abs_diff(c1, doubled), 2 * tol(k))
        << simd_tier_name(tier) << " beta=1 accumulate";
  }
}

}  // namespace
}  // namespace summagen::blas

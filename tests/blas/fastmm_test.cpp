// Strassen-family fast-MM tests (src/blas/fastmm.hpp).
//
// Fast MM is legitimately not bit-identical to the classical kernels, so
// the regime here is norm-bound: ||C_fast - C_classical||_F must stay
// within fastmm_error_budget(k, depth) * eps * ||A||_F * ||B||_F. What
// stays exact: the algebra of the coefficient tables (Brent equations),
// run-to-run bit-identity of fast runs per tier, bit-equality with
// classical whenever no fast split applies (depth cap 0, sizes below the
// crossover), and the ~0-alloc warm-run property of the pooled
// temporaries.
#include "src/blas/fastmm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include "src/blas/gemm.hpp"
#include "src/blas/tune.hpp"
#include "src/util/accounting.hpp"
#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"

namespace summagen::blas {
namespace {

using util::Matrix;

double frobenius(const Matrix& x) {
  double s = 0.0;
  for (std::int64_t i = 0; i < x.rows(); ++i) {
    for (std::int64_t j = 0; j < x.cols(); ++j) s += x(i, j) * x(i, j);
  }
  return std::sqrt(s);
}

double frobenius_diff(const Matrix& x, const Matrix& y) {
  double s = 0.0;
  for (std::int64_t i = 0; i < x.rows(); ++i) {
    for (std::int64_t j = 0; j < x.cols(); ++j) {
      const double d = x(i, j) - y(i, j);
      s += d * d;
    }
  }
  return std::sqrt(s);
}

bool bit_identical(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.rows() * x.cols()) *
                         sizeof(double)) == 0;
}

TEST(FastMmTables, BrentEquationsHoldForEveryAlgorithm) {
  for (const FastMmAlgorithm* alg : fastmm_algorithms()) {
    EXPECT_TRUE(verify_brent_equations(*alg)) << alg->name;
    EXPECT_GT(alg->rank, 0) << alg->name;
    EXPECT_LT(alg->rank, alg->mt * alg->kt * alg->nt)
        << alg->name << ": no multiplication saved";
  }
}

TEST(FastMmTables, BrentCheckRejectsACorruptedTable) {
  const FastMmAlgorithm& good = strassen_algorithm();
  signed char u[7 * 4];
  std::memcpy(u, good.u, sizeof(u));
  u[0] = -u[0] + 1;  // flip one coefficient
  FastMmAlgorithm bad = good;
  bad.u = u;
  EXPECT_FALSE(verify_brent_equations(bad));
}

TEST(FastMmKindNames, RoundTripAndErrors) {
  for (FastMmKind kind : {FastMmKind::kClassical, FastMmKind::kStrassen,
                          FastMmKind::kS223, FastMmKind::kAuto}) {
    EXPECT_EQ(parse_fastmm_kind(fastmm_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_fastmm_kind("winograd"), std::invalid_argument);
  EXPECT_THROW(parse_fastmm_kind(""), std::invalid_argument);
}

TEST(FastMmChoose, RespectsKindCrossoverAndDepth) {
  using detail::choose_fastmm;
  // Classical never splits; depth cap stops recursion.
  EXPECT_EQ(choose_fastmm(256, 256, 256, FastMmKind::kClassical, 8, 0, 3),
            nullptr);
  EXPECT_EQ(choose_fastmm(256, 256, 256, FastMmKind::kStrassen, 8, 3, 3),
            nullptr);
  EXPECT_EQ(choose_fastmm(256, 256, 256, FastMmKind::kStrassen, 8, 0, 0),
            nullptr);
  // Crossover: a split may not push any sub-block dimension below it.
  EXPECT_EQ(choose_fastmm(15, 15, 15, FastMmKind::kStrassen, 8, 0, 3),
            nullptr);
  EXPECT_EQ(choose_fastmm(16, 16, 16, FastMmKind::kStrassen, 8, 0, 3),
            &strassen_algorithm());
  // s223 needs n divisible-ish room for thirds.
  EXPECT_EQ(choose_fastmm(16, 23, 16, FastMmKind::kS223, 8, 0, 3), nullptr);
  EXPECT_EQ(choose_fastmm(16, 24, 16, FastMmKind::kS223, 8, 0, 3),
            &s223_algorithm());
  // Auto: wide-C problems prefer the <2,2,3> split, square ones Strassen.
  EXPECT_EQ(choose_fastmm(100, 100, 100, FastMmKind::kAuto, 8, 0, 3),
            &strassen_algorithm());
  EXPECT_EQ(choose_fastmm(100, 300, 100, FastMmKind::kAuto, 8, 0, 3),
            &s223_algorithm());
  // Auto falls back to classical when nothing fits.
  EXPECT_EQ(choose_fastmm(15, 15, 15, FastMmKind::kAuto, 8, 0, 3), nullptr);
}

TEST(FastMmResolve, ExplicitCrossoverWinsOverDefault) {
  GemmOptions opts;
  opts.fastmm = FastMmKind::kStrassen;
  opts.fastmm_crossover = 77;
  EXPECT_EQ(resolve_fastmm_crossover(opts), 77);
  opts.fastmm_crossover = 0;
  EXPECT_GT(resolve_fastmm_crossover(opts), 0);
}

TEST(FastMmModel, FastCostsLessThanClassicalAboveCrossover) {
  GemmOptions fast;
  fast.fastmm = FastMmKind::kStrassen;
  fast.fastmm_crossover = 64;
  fast.fastmm_max_depth = 3;
  const double classical = 2.0 * 1024.0 * 1024.0 * 1024.0;
  const double modeled = fastmm_modeled_flops(1024, 1024, 1024, fast);
  EXPECT_LT(modeled, classical);
  EXPECT_GT(modeled, 0.5 * classical);
  // Below the crossover the model degenerates to 2mnk exactly.
  EXPECT_EQ(fastmm_modeled_flops(100, 100, 100, fast),
            2.0 * 100 * 100 * 100);
  GemmOptions classic;
  EXPECT_EQ(fastmm_modeled_flops(1024, 1024, 1024, classic), classical);
}

TEST(FastMmModel, ReachableDepthTracksSizeAndCaps) {
  GemmOptions opts;
  opts.fastmm = FastMmKind::kStrassen;
  opts.fastmm_crossover = 16;
  opts.fastmm_max_depth = 10;
  EXPECT_EQ(fastmm_max_reachable_depth(128, 128, 128, opts), 3);
  opts.fastmm_max_depth = 2;
  EXPECT_EQ(fastmm_max_reachable_depth(128, 128, 128, opts), 2);
  opts.fastmm_max_depth = 10;
  EXPECT_EQ(fastmm_max_reachable_depth(16, 16, 16, opts), 0);
}

// ---------------------------------------------------------------------------
// Norm-bound accuracy over shapes (odd/prime, tall-skinny, degenerate)
// ---------------------------------------------------------------------------

struct FastCase {
  std::int64_t m, n, k;
};

class FastMmShapes
    : public ::testing::TestWithParam<std::tuple<FastMmKind, FastCase>> {};

TEST_P(FastMmShapes, WithinNormBoundOfClassical) {
  const auto [kind, shape] = GetParam();
  Matrix a(shape.m, shape.k), b(shape.k, shape.n);
  util::fill_random(a, 11);
  util::fill_random(b, 12);

  GemmOptions classical;
  classical.threads = 2;
  GemmOptions fast = classical;
  fast.fastmm = kind;
  fast.fastmm_crossover = 8;  // tiny: force real recursion at test sizes
  fast.fastmm_max_depth = 3;

  const Matrix want = multiply(a, b, classical);
  const Matrix got = multiply(a, b, fast);

  const int depth =
      fastmm_max_reachable_depth(shape.m, shape.n, shape.k, fast);
  const double bound = fastmm_error_budget(shape.k, depth) *
                       std::numeric_limits<double>::epsilon() *
                       frobenius(a) * frobenius(b);
  EXPECT_LE(frobenius_diff(got, want), bound)
      << fastmm_kind_name(kind) << " m=" << shape.m << " n=" << shape.n
      << " k=" << shape.k << " depth=" << depth;
  // The budget must be a real bound, not a tautology: it stays far below
  // the result's own magnitude for these well-scaled inputs.
  if (frobenius(want) > 1.0) {
    EXPECT_LT(bound, 1e-3 * frobenius(want));
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndShapes, FastMmShapes,
    ::testing::Combine(
        ::testing::Values(FastMmKind::kStrassen, FastMmKind::kS223,
                          FastMmKind::kAuto),
        ::testing::Values(FastCase{64, 64, 64},      // power of two
                          FastCase{61, 67, 71},      // primes: full peeling
                          FastCase{96, 33, 96},      // odd middle
                          FastCase{128, 17, 64},     // narrow C
                          FastCase{48, 144, 48},     // wide C (s223 home)
                          FastCase{1, 64, 64},       // m = 1 degenerate
                          FastCase{64, 1, 64},       // n = 1 degenerate
                          FastCase{64, 64, 1},       // k = 1 degenerate
                          FastCase{200, 3, 5})),     // tall-skinny
    [](const auto& param_info) {
      const FastCase c = std::get<1>(param_info.param);
      return std::string(fastmm_kind_name(std::get<0>(param_info.param))) +
             "_" + std::to_string(c.m) + "x" + std::to_string(c.n) + "x" +
             std::to_string(c.k);
    });

TEST(FastMmAccuracy, AlphaBetaHandledIncludingNanOverwrite) {
  const std::int64_t n = 48;
  Matrix a(n, n), b(n, n);
  util::fill_random(a, 21);
  util::fill_random(b, 22);
  GemmOptions classical;
  classical.threads = 1;
  GemmOptions fast = classical;
  fast.fastmm = FastMmKind::kStrassen;
  fast.fastmm_crossover = 8;

  for (const double alpha : {1.0, 2.5, -0.75}) {
    for (const double beta : {0.0, 1.0, -0.5}) {
      Matrix c_classical(n, n), c_fast(n, n);
      if (beta == 0.0) {
        // beta == 0 must overwrite without reading: poison C with NaN.
        const double nan = std::numeric_limits<double>::quiet_NaN();
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            c_classical(i, j) = nan;
            c_fast(i, j) = nan;
          }
        }
      } else {
        util::fill_random(c_classical, 23);
        util::fill_random(c_fast, 23);
      }
      dgemm(n, n, n, alpha, a.data(), n, b.data(), n, beta,
            c_classical.data(), n, classical);
      dgemm(n, n, n, alpha, a.data(), n, b.data(), n, beta, c_fast.data(), n,
            fast);
      const int depth = fastmm_max_reachable_depth(n, n, n, fast);
      const double bound = fastmm_error_budget(n, depth) *
                           std::numeric_limits<double>::epsilon() *
                           std::abs(alpha) * frobenius(a) * frobenius(b);
      // The beta*C term is applied identically on both sides (one multiply
      // and add per element), so it adds nothing to the comparison budget.
      EXPECT_LE(frobenius_diff(c_fast, c_classical), bound + 1e-12)
          << "alpha=" << alpha << " beta=" << beta;
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          ASSERT_FALSE(std::isnan(c_fast(i, j)))
              << "NaN leaked at " << i << "," << j << " beta=" << beta;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism and depth caps
// ---------------------------------------------------------------------------

TEST(FastMmDeterminism, DepthZeroIsBitIdenticalToClassical) {
  Matrix a(96, 96), b(96, 96);
  util::fill_random(a, 31);
  util::fill_random(b, 32);
  GemmOptions classical;
  GemmOptions fast = classical;
  fast.fastmm = FastMmKind::kStrassen;
  fast.fastmm_crossover = 8;
  fast.fastmm_max_depth = 0;  // cap at zero: must degenerate to classical
  EXPECT_TRUE(bit_identical(multiply(a, b, classical), multiply(a, b, fast)));
}

TEST(FastMmDeterminism, BelowCrossoverIsBitIdenticalToClassical) {
  Matrix a(64, 64), b(64, 64);
  util::fill_random(a, 33);
  util::fill_random(b, 34);
  GemmOptions classical;
  GemmOptions fast = classical;
  fast.fastmm = FastMmKind::kAuto;
  fast.fastmm_crossover = 512;  // 64/2 < 512: no split applies
  EXPECT_TRUE(bit_identical(multiply(a, b, classical), multiply(a, b, fast)));
}

class FastMmRunToRun : public ::testing::TestWithParam<SimdTier> {};

TEST_P(FastMmRunToRun, TwoIdenticalRunsAreBitIdentical) {
  const SimdTier tier = GetParam();
  if (tier != SimdTier::kAuto && !simd_tier_available(tier)) {
    GTEST_SKIP() << "tier unavailable on this host";
  }
  Matrix a(90, 126, 0.0), b(126, 90, 0.0);
  util::fill_random(a, 41);
  util::fill_random(b, 42);
  GemmOptions fast;
  fast.tier = tier;
  fast.fastmm = FastMmKind::kAuto;
  fast.fastmm_crossover = 8;
  // Parallel products and parallel leaves: scheduling must not leak into
  // the bits (fixed combination orders, per-product buffers).
  const Matrix first = multiply(a, b, fast);
  for (int run = 0; run < 3; ++run) {
    EXPECT_TRUE(bit_identical(first, multiply(a, b, fast))) << "run " << run;
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, FastMmRunToRun,
                         ::testing::Values(SimdTier::kAuto, SimdTier::kScalar),
                         [](const auto& param_info) {
                           return std::string(
                               simd_tier_name(param_info.param));
                         });

// ---------------------------------------------------------------------------
// Pooled temporaries: warm runs stay ~0-alloc, fastmm counters tick
// ---------------------------------------------------------------------------

TEST(FastMmPooling, WarmSerialRunAllocatesNothingAndCountsLeases) {
  const std::int64_t n = 96;
  Matrix a(n, n), b(n, n), c(n, n);
  util::fill_random(a, 51);
  util::fill_random(b, 52);
  GemmOptions fast;
  fast.threads = 1;  // serial: the lease sequence is deterministic
  fast.fastmm = FastMmKind::kStrassen;
  fast.fastmm_crossover = 8;
  fast.fastmm_max_depth = 2;
  // Warm-up primes every size class the recursion shape needs.
  dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n, fast);

  const util::DataPlaneStats base = util::data_plane_stats();
  dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n, fast);
  const util::DataPlaneStats d = util::data_plane_stats().since(base);
  EXPECT_EQ(d.allocs, 0) << "warm fast-MM run hit the heap";
  EXPECT_GT(d.fastmm_leases, 0);
  EXPECT_GT(d.fastmm_bytes, 0);
  // Every fast-MM lease is also a pool acquire, all freelist hits.
  EXPECT_GE(d.pool_acquires, d.fastmm_leases);
  EXPECT_EQ(d.pool_hits, d.pool_acquires);
}

TEST(FastMmPooling, WarmParallelRunStaysNearZeroAlloc) {
  const std::int64_t n = 128;
  Matrix a(n, n), b(n, n), c(n, n);
  util::fill_random(a, 53);
  util::fill_random(b, 54);
  GemmOptions fast;
  fast.fastmm = FastMmKind::kStrassen;
  fast.fastmm_crossover = 16;
  // Three warm-ups: concurrent lease peaks can differ run to run, so let
  // the pool approach its high-water mark first.
  for (int w = 0; w < 3; ++w) {
    dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n, fast);
  }

  // The lease peak depends on scheduling: any one warm run may overlap its
  // workers more than the warm-ups did and allocate up to its whole
  // traffic, so a single run's bytes are load-sensitive. Over eight runs
  // they are not: the pool's high-water mark only grows and is bounded,
  // so blocks kept across runs serve nearly every lease — while a pool
  // that kept nothing across runs would re-allocate every run's traffic.
  constexpr int kRuns = 8;
  const util::DataPlaneStats base = util::data_plane_stats();
  for (int run = 0; run < kRuns; ++run) {
    dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n, fast);
  }
  const util::DataPlaneStats d = util::data_plane_stats().since(base);
  EXPECT_GT(d.fastmm_leases, 0);
  EXPECT_GT(d.fastmm_bytes, 0);
  EXPECT_LT(d.alloc_bytes, d.fastmm_bytes / 4)
      << "warm parallel fast-MM runs re-allocated their leases";
}

TEST(FastMmPooling, ClassicalRunsRecordNoFastMmTraffic) {
  const std::int64_t n = 64;
  Matrix a(n, n), b(n, n), c(n, n);
  util::fill_random(a, 55);
  util::fill_random(b, 56);
  const util::DataPlaneStats base = util::data_plane_stats();
  dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n, {});
  const util::DataPlaneStats d = util::data_plane_stats().since(base);
  EXPECT_EQ(d.fastmm_leases, 0);
  EXPECT_EQ(d.fastmm_bytes, 0);
}

// ---------------------------------------------------------------------------
// Option validation
// ---------------------------------------------------------------------------

TEST(FastMmOptions, NegativeKnobsAreRejected) {
  Matrix a(4, 4), b(4, 4), c(4, 4);
  GemmOptions opts;
  opts.fastmm_crossover = -1;
  EXPECT_THROW(dgemm(4, 4, 4, 1.0, a.data(), 4, b.data(), 4, 0.0, c.data(),
                     4, opts),
               std::invalid_argument);
  opts.fastmm_crossover = 0;
  opts.fastmm_max_depth = -1;
  EXPECT_THROW(dgemm(4, 4, 4, 1.0, a.data(), 4, b.data(), 4, 0.0, c.data(),
                     4, opts),
               std::invalid_argument);
}

TEST(FastMmOptions, TuneRecordRoundTripsCrossover) {
  TuneFile file;
  TuneRecord rec;
  rec.bs = {96, 2048, 256};
  rec.gflops = 30.0;
  rec.fastmm_crossover = 384;
  file["cpu"]["avx2"] = rec;
  TuneFile parsed;
  ASSERT_TRUE(parse_tune_file(format_tune_file(file), &parsed));
  EXPECT_EQ(parsed["cpu"]["avx2"].fastmm_crossover, 384);
  // Old-format records (no crossover field) parse to 0 = untuned.
  ASSERT_TRUE(parse_tune_file(
      R"({"cpus": {"cpu": {"avx2": {"mc": 8, "nc": 16, "kc": 4}}}})",
      &parsed));
  EXPECT_EQ(parsed["cpu"]["avx2"].fastmm_crossover, 0);
}

}  // namespace
}  // namespace summagen::blas

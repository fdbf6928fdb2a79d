#include "src/blas/gemm.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"

namespace summagen::blas {
namespace {

using util::Matrix;

// Oracle: plain ijk triple loop, independent of the library kernels.
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

struct Case {
  std::int64_t m, n, k;
};

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<GemmKernel, Case>> {};

TEST_P(GemmShapes, MatchesOracle) {
  const auto [kernel, c] = GetParam();
  Matrix a(c.m, c.k), b(c.k, c.n);
  util::fill_random(a, 1);
  util::fill_random(b, 2);
  GemmOptions opts;
  opts.kernel = kernel;
  opts.threads = 3;
  const Matrix got = multiply(a, b, opts);
  const Matrix want = oracle(a, b);
  EXPECT_LE(Matrix::max_abs_diff(got, want), tol(c.k))
      << "m=" << c.m << " n=" << c.n << " k=" << c.k;
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndShapes, GemmShapes,
    ::testing::Combine(
        ::testing::Values(GemmKernel::kNaive, GemmKernel::kPacked),
        ::testing::Values(Case{1, 1, 1}, Case{1, 7, 3}, Case{5, 1, 9},
                          Case{8, 8, 8}, Case{17, 19, 23}, Case{16, 64, 16},
                          Case{64, 16, 48}, Case{33, 31, 1},
                          Case{100, 100, 100})),
    [](const auto& param_info) {
      const auto kernel = std::get<0>(param_info.param);
      const auto c = std::get<1>(param_info.param);
      const char* kn = kernel == GemmKernel::kNaive ? "naive" : "packed";
      return std::string(kn) + "_" + std::to_string(c.m) + "x" +
             std::to_string(c.n) + "x" + std::to_string(c.k);
    });

TEST(Gemm, AlphaBetaSemantics) {
  Matrix a(4, 4), b(4, 4), c0(4, 4);
  util::fill_random(a, 3);
  util::fill_random(b, 4);
  util::fill_random(c0, 5);

  // C := 2*A*B + 0.5*C0
  Matrix c = c0;
  dgemm(4, 4, 4, 2.0, a.data(), 4, b.data(), 4, 0.5, c.data(), 4);
  const Matrix ab = oracle(a, b);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(c(i, j), 2.0 * ab(i, j) + 0.5 * c0(i, j), 1e-12);
    }
  }
}

TEST(Gemm, BetaZeroOverwritesEvenNan) {
  Matrix a(2, 2, 1.0), b(2, 2, 1.0);
  Matrix c(2, 2, std::numeric_limits<double>::quiet_NaN());
  dgemm(2, 2, 2, 1.0, a.data(), 2, b.data(), 2, 0.0, c.data(), 2);
  for (double v : c.span()) EXPECT_EQ(v, 2.0);
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  Matrix a(2, 2, 1.0), b(2, 2, 1.0), c(2, 2, 4.0);
  dgemm(2, 2, 2, 0.0, a.data(), 2, b.data(), 2, 0.5, c.data(), 2);
  for (double v : c.span()) EXPECT_EQ(v, 2.0);
}

TEST(Gemm, StridedSubmatrixMultiply) {
  // Multiply the top-left 3x3 blocks of two 5x5 matrices into the
  // bottom-right 3x3 block of a 5x5 C, exercising all leading dimensions.
  Matrix a(5, 5), b(5, 5), c(5, 5);
  util::fill_random(a, 6);
  util::fill_random(b, 7);
  dgemm(3, 3, 3, 1.0, a.data(), 5, b.data(), 5, 0.0, c.data() + 2 * 5 + 2, 5);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      double acc = 0.0;
      for (std::int64_t l = 0; l < 3; ++l) acc += a(i, l) * b(l, j);
      EXPECT_NEAR(c(2 + i, 2 + j), acc, 1e-12);
    }
  }
  // Cells outside the target block stay zero.
  EXPECT_EQ(c(0, 0), 0.0);
  EXPECT_EQ(c(1, 4), 0.0);
}

TEST(Gemm, ZeroExtentsAreNoops) {
  Matrix a(4, 4, 1.0), b(4, 4, 1.0), c(4, 4, 3.0);
  dgemm(0, 4, 4, 1.0, a.data(), 4, b.data(), 4, 0.0, c.data(), 4);
  dgemm(4, 0, 4, 1.0, a.data(), 4, b.data(), 4, 0.0, c.data(), 4);
  for (double v : c.span()) EXPECT_EQ(v, 3.0);
  // k == 0 applies beta but adds nothing.
  dgemm(4, 4, 0, 1.0, a.data(), 4, b.data(), 4, 0.5, c.data(), 4);
  for (double v : c.span()) EXPECT_EQ(v, 1.5);
}

TEST(Gemm, RejectsBadLeadingDimensions) {
  Matrix a(4, 4), b(4, 4), c(4, 4);
  EXPECT_THROW(dgemm(4, 4, 4, 1.0, a.data(), 3, b.data(), 4, 0.0, c.data(), 4),
               std::invalid_argument);
  EXPECT_THROW(dgemm(4, 4, 4, 1.0, a.data(), 4, b.data(), 3, 0.0, c.data(), 4),
               std::invalid_argument);
  EXPECT_THROW(dgemm(4, 4, 4, 1.0, a.data(), 4, b.data(), 4, 0.0, c.data(), 3),
               std::invalid_argument);
  EXPECT_THROW(dgemm(-1, 4, 4, 1.0, a.data(), 4, b.data(), 4, 0.0, c.data(), 4),
               std::invalid_argument);
}

TEST(Gemm, MultiplyValidatesInnerDimensions) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_THROW(multiply(a, b), std::invalid_argument);
}

TEST(Gemm, MoreThreadsThanRows) {
  Matrix a(2, 8), b(8, 2);
  util::fill_random(a, 10);
  util::fill_random(b, 11);
  GemmOptions opts{.kernel = GemmKernel::kPacked, .threads = 16};
  const Matrix got = multiply(a, b, opts);
  EXPECT_LE(Matrix::max_abs_diff(got, oracle(a, b)), tol(8));
}

TEST(GemmFlops, Formula) {
  EXPECT_EQ(gemm_flops(2, 3, 4), 48);
  EXPECT_EQ(gemm_flops(0, 3, 4), 0);
}

}  // namespace
}  // namespace summagen::blas

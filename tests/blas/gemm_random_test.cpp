// Randomised DGEMM sweep: many random shapes, leading dimensions, and
// alpha/beta combinations against a trusted oracle.
#include <gtest/gtest.h>

#include "src/blas/gemm.hpp"
#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"

namespace summagen::blas {
namespace {

using util::Matrix;

TEST(GemmRandom, RandomShapesAllKernels) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t m = rng.uniform_int(1, 48);
    const std::int64_t n = rng.uniform_int(1, 48);
    const std::int64_t k = rng.uniform_int(1, 48);
    Matrix a(m, k), b(k, n);
    util::fill_random(a, util::derive_seed(1000, trial));
    util::fill_random(b, util::derive_seed(2000, trial));

    Matrix want(m, n);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::int64_t l = 0; l < k; ++l) acc += a(i, l) * b(l, j);
        want(i, j) = acc;
      }
    }

    for (auto kernel : {GemmKernel::kNaive, GemmKernel::kPacked}) {
      GemmOptions opts;
      opts.kernel = kernel;
      opts.threads = static_cast<int>(rng.uniform_int(1, 5));
      const Matrix got = multiply(a, b, opts);
      EXPECT_LE(Matrix::max_abs_diff(got, want), 1e-11 * (k + 1))
          << "trial " << trial << " m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(GemmRandom, RandomStridedSubproblems) {
  // Random sub-blocks of larger matrices with independent leading dims.
  util::Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t ld = 64;
    Matrix a(ld, ld), b(ld, ld), c(ld, ld);
    util::fill_random(a, util::derive_seed(3000, trial));
    util::fill_random(b, util::derive_seed(4000, trial));
    util::fill_random(c, util::derive_seed(5000, trial));
    const Matrix c0 = c;

    const std::int64_t m = rng.uniform_int(1, 20);
    const std::int64_t n = rng.uniform_int(1, 20);
    const std::int64_t k = rng.uniform_int(1, 20);
    const std::int64_t ra = rng.uniform_int(0, ld - m);
    const std::int64_t ca = rng.uniform_int(0, ld - k);
    const std::int64_t rb = rng.uniform_int(0, ld - k);
    const std::int64_t cb = rng.uniform_int(0, ld - n);
    const std::int64_t rc = rng.uniform_int(0, ld - m);
    const std::int64_t cc = rng.uniform_int(0, ld - n);
    const double alpha = rng.uniform(-2, 2);
    const double beta = rng.uniform(-2, 2);

    dgemm(m, n, k, alpha, a.data() + ra * ld + ca, ld,
          b.data() + rb * ld + cb, ld, beta, c.data() + rc * ld + cc, ld);

    for (std::int64_t i = 0; i < ld; ++i) {
      for (std::int64_t j = 0; j < ld; ++j) {
        const bool inside =
            i >= rc && i < rc + m && j >= cc && j < cc + n;
        if (!inside) {
          // Everything outside the target block is untouched.
          EXPECT_EQ(c(i, j), c0(i, j)) << "trial " << trial;
          continue;
        }
        double acc = 0.0;
        for (std::int64_t l = 0; l < k; ++l) {
          acc += a(ra + i - rc, ca + l) * b(rb + l, cb + j - cc);
        }
        EXPECT_NEAR(c(i, j), alpha * acc + beta * c0(i, j), 1e-11 * (k + 1))
            << "trial " << trial;
      }
    }
  }
}

TEST(GemmRandom, AccumulationChainsAreAssociativeEnough) {
  // C += A_i * B_i accumulated through dgemm equals the one-shot product
  // of the concatenations — the pattern SummaGen's per-sub-partition
  // computation relies on.
  util::Rng rng(99);
  const std::int64_t m = 24, n = 20;
  Matrix c(m, n);
  Matrix big_a(m, 0), want(m, n);
  std::vector<Matrix> as, bs;
  std::int64_t k_total = 0;
  for (int piece = 0; piece < 5; ++piece) {
    const std::int64_t k = rng.uniform_int(1, 16);
    k_total += k;
    Matrix a(m, k), b(k, n);
    util::fill_random(a, util::derive_seed(6000, piece));
    util::fill_random(b, util::derive_seed(7000, piece));
    dgemm(m, n, k, 1.0, a.data(), k, b.data(), n, 1.0, c.data(), n);
    as.push_back(std::move(a));
    bs.push_back(std::move(b));
  }
  // One-shot reference from the concatenated operands.
  Matrix a_cat(m, k_total), b_cat(k_total, n);
  std::int64_t k0 = 0;
  for (std::size_t piece = 0; piece < as.size(); ++piece) {
    util::copy_matrix(a_cat.data() + k0, k_total, as[piece].data(),
                      as[piece].cols(), m, as[piece].cols());
    util::copy_matrix(b_cat.data() + k0 * n, n, bs[piece].data(), n,
                      bs[piece].rows(), n);
    k0 += as[piece].cols();
  }
  dgemm(m, n, k_total, 1.0, a_cat.data(), k_total, b_cat.data(), n, 0.0,
        want.data(), n);
  EXPECT_LE(Matrix::max_abs_diff(c, want), 1e-10);
}

}  // namespace
}  // namespace summagen::blas

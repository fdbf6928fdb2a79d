// Tests of the view-based dgemm overload: validation, aliasing rejection,
// and the bit-identity oracle — a GEMM on strided subviews of a global
// matrix must produce exactly the bytes the same GEMM produces on compact
// copies of those blocks (the zero-copy refactor moves operands, never the
// operation sequence).
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/blas/gemm.hpp"
#include "src/util/matrix.hpp"
#include "src/util/matrix_view.hpp"
#include "src/util/rng.hpp"

namespace summagen::blas {
namespace {

using summagen::util::ConstMatrixView;
using summagen::util::Matrix;
using summagen::util::MatrixView;
using summagen::util::block_view;
using summagen::util::materialize;

TEST(GemmView, MatchesWholeMatrixPointerCall) {
  const std::int64_t n = 48;
  Matrix a(n, n), b(n, n), c_view(n, n), c_ptr(n, n);
  summagen::util::fill_random(a, 11);
  summagen::util::fill_random(b, 12);
  c_view.fill(0.5);
  c_ptr.fill(0.5);

  dgemm(1.25, ConstMatrixView(a), ConstMatrixView(b), -0.5,
        MatrixView(c_view));
  dgemm(n, n, n, 1.25, a.data(), n, b.data(), n, -0.5, c_ptr.data(), n);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(c_view(i, j), c_ptr(i, j)) << i << "," << j;
    }
  }
}

// The oracle: multiply strided blocks living inside one big global buffer,
// then multiply compact materialized copies of the same blocks, and demand
// bit-identical C bytes for every kernel.
TEST(GemmView, StridedSubviewsBitIdenticalToCompactCopies) {
  const std::int64_t m = 30, n = 26, k = 34;
  Matrix global(96, 96);
  summagen::util::fill_random(global, 21);

  const ConstMatrixView a = block_view(
      static_cast<const Matrix&>(global), 3, 5, m, k);
  const ConstMatrixView b = block_view(
      static_cast<const Matrix&>(global), 40, 7, k, n);
  const Matrix a_copy = materialize(a);
  const Matrix b_copy = materialize(b);

  for (GemmKernel kernel : {GemmKernel::kNaive, GemmKernel::kPacked}) {
    GemmOptions opts;
    opts.kernel = kernel;

    Matrix c_frame(64, 64);
    c_frame.fill(2.0);
    MatrixView c_strided = block_view(c_frame, 10, 20, m, n);
    dgemm(1.0, a, b, 1.0, c_strided, opts);

    Matrix c_compact(m, n);
    c_compact.fill(2.0);
    dgemm(1.0, ConstMatrixView(a_copy), ConstMatrixView(b_copy), 1.0,
          MatrixView(c_compact), opts);

    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        EXPECT_EQ(c_strided(i, j), c_compact(i, j))
            << "kernel " << static_cast<int>(kernel) << " at " << i << ","
            << j;
      }
    }
    // The frame around the strided C must be untouched.
    EXPECT_EQ(c_frame(9, 20), 2.0);
    EXPECT_EQ(c_frame(10 + m, 20), 2.0);
    EXPECT_EQ(c_frame(10, 19), 2.0);
    EXPECT_EQ(c_frame(10, 20 + n), 2.0);
  }
}

TEST(GemmView, InnerExtentMismatchThrows) {
  Matrix a(4, 5), b(6, 3), c(4, 3);
  EXPECT_THROW(
      dgemm(1.0, ConstMatrixView(a), ConstMatrixView(b), 0.0, MatrixView(c)),
      std::invalid_argument);
}

TEST(GemmView, OutputShapeMismatchThrows) {
  Matrix a(4, 5), b(5, 3), c(4, 4);
  EXPECT_THROW(
      dgemm(1.0, ConstMatrixView(a), ConstMatrixView(b), 0.0, MatrixView(c)),
      std::invalid_argument);
}

TEST(GemmView, AliasedOutputThrows) {
  Matrix m(12, 12);
  summagen::util::fill_random(m, 3);
  const ConstMatrixView a = block_view(
      static_cast<const Matrix&>(m), 0, 0, 4, 4);
  const ConstMatrixView b = block_view(
      static_cast<const Matrix&>(m), 8, 8, 4, 4);
  // C overlapping A.
  EXPECT_THROW(dgemm(1.0, a, b, 0.0, block_view(m, 2, 2, 4, 4)),
               std::invalid_argument);
  // C overlapping B.
  EXPECT_THROW(dgemm(1.0, a, b, 0.0, block_view(m, 7, 7, 4, 4)),
               std::invalid_argument);
}

TEST(GemmView, EmptyProductIsANoOp) {
  Matrix a(0, 7), b(7, 0), c(0, 0);
  EXPECT_NO_THROW(
      dgemm(1.0, ConstMatrixView(a), ConstMatrixView(b), 0.0, MatrixView(c)));
}

}  // namespace
}  // namespace summagen::blas

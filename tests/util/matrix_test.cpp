#include "src/util/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/rng.hpp"

namespace summagen::util {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructsZeroInitialised) {
  Matrix m(3, 5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_EQ(m.size(), 15);
  for (double v : m.span()) EXPECT_EQ(v, 0.0);
}

TEST(Matrix, ConstructsWithFillValue) {
  Matrix m(2, 2, 7.5);
  for (double v : m.span()) EXPECT_EQ(v, 7.5);
}

TEST(Matrix, ThrowsOnNegativeDimensions) {
  EXPECT_THROW(Matrix(-1, 2), std::invalid_argument);
  EXPECT_THROW(Matrix(2, -1), std::invalid_argument);
}

TEST(Matrix, ZeroByNIsValid) {
  Matrix m(0, 7);
  EXPECT_TRUE(m.empty());
  Matrix m2(7, 0);
  EXPECT_TRUE(m2.empty());
}

TEST(Matrix, ElementAccessIsRowMajor) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 2;
  m(1, 0) = 3;
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[2], 2);
  EXPECT_EQ(m.data()[3], 3);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_THROW(m.at(-1, 0), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 1.0);
  b(1, 1) = 1.5;
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, a), 0.0);
}

// std::max(worst, NaN) keeps `worst`, which once let a C with a NaN entry
// verify with error 0. A NaN difference anywhere must make the result NaN,
// whichever operand holds it and whatever larger error comes before it.
TEST(Matrix, MaxAbsDiffPropagatesNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix a(4, 4, 0.25);
  Matrix b = a;
  b(2, 1) = nan;
  EXPECT_TRUE(std::isnan(Matrix::max_abs_diff(a, b)));
  EXPECT_TRUE(std::isnan(Matrix::max_abs_diff(b, a)));
  b(0, 0) = 3.0;  // a larger finite difference ahead of the NaN
  EXPECT_TRUE(std::isnan(Matrix::max_abs_diff(a, b)));
  b(2, 1) = a(2, 1);
  EXPECT_EQ(Matrix::max_abs_diff(a, b), 2.75);
}

TEST(Matrix, MaxAbsDiffShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(Matrix::max_abs_diff(a, b), std::invalid_argument);
}

TEST(CopyMatrix, ContiguousFastPath) {
  Matrix src(3, 4);
  fill_random(src, 1);
  Matrix dst(3, 4);
  copy_matrix(dst.data(), 4, src.data(), 4, 3, 4);
  EXPECT_EQ(dst, src);
}

TEST(CopyMatrix, StridedCopy) {
  // Copy a 2x2 block out of a 4x4 matrix into a 2x3 destination.
  Matrix src(4, 4);
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t j = 0; j < 4; ++j) src(i, j) = i * 10.0 + j;
  Matrix dst(2, 3, -1.0);
  copy_matrix(dst.data(), 3, src.data() + 1 * 4 + 2, 4, 2, 2);
  EXPECT_EQ(dst(0, 0), 12.0);
  EXPECT_EQ(dst(0, 1), 13.0);
  EXPECT_EQ(dst(1, 0), 22.0);
  EXPECT_EQ(dst(1, 1), 23.0);
  EXPECT_EQ(dst(0, 2), -1.0);  // untouched past the copied columns
}

TEST(CopyMatrix, ZeroExtentIsNoop) {
  Matrix dst(2, 2, 5.0);
  const double src[1] = {9.0};
  copy_matrix(dst.data(), 2, src, 1, 0, 1);
  copy_matrix(dst.data(), 2, src, 1, 1, 0);
  for (double v : dst.span()) EXPECT_EQ(v, 5.0);
}

TEST(CopyMatrix, RejectsBadLeadingDimensions) {
  Matrix a(2, 4), b(2, 4);
  EXPECT_THROW(copy_matrix(a.data(), 3, b.data(), 4, 2, 4),
               std::invalid_argument);
  EXPECT_THROW(copy_matrix(a.data(), 4, b.data(), 3, 2, 4),
               std::invalid_argument);
  EXPECT_THROW(copy_matrix(a.data(), 4, b.data(), 4, -1, 4),
               std::invalid_argument);
}

TEST(ExtractPlaceBlock, RoundTrips) {
  Matrix m(6, 6);
  fill_random(m, 3);
  const Matrix block = extract_block(m, 2, 1, 3, 4);
  EXPECT_EQ(block.rows(), 3);
  EXPECT_EQ(block.cols(), 4);
  EXPECT_EQ(block(0, 0), m(2, 1));
  EXPECT_EQ(block(2, 3), m(4, 4));

  Matrix target(6, 6);
  place_block(target, block, 2, 1);
  for (std::int64_t i = 0; i < 3; ++i)
    for (std::int64_t j = 0; j < 4; ++j)
      EXPECT_EQ(target(2 + i, 1 + j), m(2 + i, 1 + j));
  EXPECT_EQ(target(0, 0), 0.0);
}

TEST(ExtractBlock, ThrowsOutsideMatrix) {
  Matrix m(4, 4);
  EXPECT_THROW(extract_block(m, 2, 2, 3, 1), std::out_of_range);
  EXPECT_THROW(extract_block(m, 0, 3, 1, 2), std::out_of_range);
  EXPECT_THROW(extract_block(m, -1, 0, 1, 1), std::out_of_range);
}

TEST(PlaceBlock, ThrowsOutsideMatrix) {
  Matrix m(4, 4);
  Matrix b(2, 2, 1.0);
  EXPECT_THROW(place_block(m, b, 3, 0), std::out_of_range);
  EXPECT_THROW(place_block(m, b, 0, 3), std::out_of_range);
}

TEST(ToString, RendersSmallMatrix) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  EXPECT_EQ(to_string(m), "2x2 [ 1 2 ; 3 4 ]");
}

TEST(ToString, TruncatesLargeMatrix) {
  Matrix m(20, 20, 1.0);
  const std::string s = to_string(m, 2);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_NE(s.find("20x20"), std::string::npos);
}

}  // namespace
}  // namespace summagen::util

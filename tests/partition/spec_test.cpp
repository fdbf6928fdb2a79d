#include "src/partition/spec.hpp"

#include <gtest/gtest.h>

namespace summagen::partition {
namespace {

// The paper's square-corner example (Figure 1a), used throughout.
PartitionSpec corner16() {
  PartitionSpec s;
  s.n = 16;
  s.subplda = 3;
  s.subpldb = 3;
  s.subp = {0, 1, 1, 1, 1, 1, 1, 1, 2};
  s.subph = {9, 3, 4};
  s.subpw = {9, 3, 4};
  return s;
}

TEST(PartitionSpec, ValidateAcceptsCorner16) {
  EXPECT_NO_THROW(corner16().validate(3));
}

TEST(PartitionSpec, ValidateCatchesWrongSums) {
  auto s = corner16();
  s.subph = {9, 3, 3};
  EXPECT_THROW(s.validate(3), std::invalid_argument);
  s = corner16();
  s.subpw = {9, 3, 5};
  EXPECT_THROW(s.validate(3), std::invalid_argument);
}

TEST(PartitionSpec, ValidateCatchesArraySizeMismatches) {
  auto s = corner16();
  s.subp.pop_back();
  EXPECT_THROW(s.validate(3), std::invalid_argument);
  s = corner16();
  s.subph.push_back(0);
  EXPECT_THROW(s.validate(3), std::invalid_argument);
}

TEST(PartitionSpec, ValidateCatchesBadOwners) {
  auto s = corner16();
  s.subp[4] = 7;
  EXPECT_THROW(s.validate(3), std::invalid_argument);
  s.subp[4] = -1;
  EXPECT_THROW(s.validate(3), std::invalid_argument);
  s.subp[4] = 7;
  EXPECT_NO_THROW(s.validate(-1));  // owner-range check skipped
}

TEST(PartitionSpec, ValidateAllowsZeroExtents) {
  auto s = corner16();
  s.subph = {9, 0, 7};
  EXPECT_NO_THROW(s.validate(3));
}

TEST(PartitionSpec, ValidateCatchesNegativeExtents) {
  auto s = corner16();
  s.subph = {9, -1, 8};
  EXPECT_THROW(s.validate(3), std::invalid_argument);
}

TEST(PartitionSpec, NprocsIsMaxOwnerPlusOne) {
  EXPECT_EQ(corner16().nprocs(), 3);
  PartitionSpec s;
  s.n = 4;
  s.subplda = s.subpldb = 1;
  s.subp = {5};
  s.subph = {4};
  s.subpw = {4};
  EXPECT_EQ(s.nprocs(), 6);
}

TEST(PartitionSpec, Offsets) {
  const auto s = corner16();
  EXPECT_EQ(s.row_offsets(), (std::vector<std::int64_t>{0, 9, 12, 16}));
  EXPECT_EQ(s.col_offsets(), (std::vector<std::int64_t>{0, 9, 12, 16}));
}

TEST(PartitionSpec, RowAndColumnMembership) {
  const auto s = corner16();
  EXPECT_TRUE(s.row_contains(0, 0));
  EXPECT_TRUE(s.row_contains(1, 0));
  EXPECT_FALSE(s.row_contains(2, 0));
  EXPECT_FALSE(s.row_contains(0, 1));  // row 1 is all P1
  EXPECT_TRUE(s.row_contains(1, 1));
  EXPECT_TRUE(s.row_contains(2, 2));
  EXPECT_TRUE(s.col_contains(1, 2));
  EXPECT_FALSE(s.col_contains(0, 2));
}

TEST(PartitionSpec, RanksInRowSortedDistinct) {
  const auto s = corner16();
  EXPECT_EQ(s.ranks_in_row(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(s.ranks_in_row(1), (std::vector<int>{1}));
  EXPECT_EQ(s.ranks_in_row(2), (std::vector<int>{1, 2}));
  EXPECT_EQ(s.ranks_in_col(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(s.ranks_in_col(2), (std::vector<int>{1, 2}));
}

TEST(PartitionSpec, AreasSumToNSquared) {
  const auto s = corner16();
  EXPECT_EQ(s.area_of(0) + s.area_of(1) + s.area_of(2), 16 * 16);
}

TEST(PartitionSpec, CoveringRectangles) {
  const auto s = corner16();
  EXPECT_EQ(s.covering(0), (Rect{0, 0, 9, 9}));
  EXPECT_EQ(s.covering(1), (Rect{0, 0, 16, 16}));
  EXPECT_EQ(s.covering(2), (Rect{12, 12, 4, 4}));
  EXPECT_EQ(s.covering(5), (Rect{}));  // absent rank: empty zone
}

TEST(PartitionSpec, CoveringIgnoresZeroExtentCells) {
  auto s = corner16();
  // Give row 1 zero height: P1's covering must still be the full matrix
  // via rows 0 and 2, but a rank owning only zero-height cells vanishes.
  s.subph = {9, 0, 7};
  EXPECT_EQ(s.covering(1).rows, 16);
  s.subp = {0, 1, 1, 2, 2, 2, 1, 1, 1};  // P2 only in the zero-height row
  EXPECT_EQ(s.covering(2), (Rect{}));
  EXPECT_EQ(s.half_perimeter(2), 0);
}

TEST(PartitionSpec, IsRectangular) {
  const auto s = corner16();
  EXPECT_TRUE(s.is_rectangular(0));
  EXPECT_FALSE(s.is_rectangular(1));
  EXPECT_TRUE(s.is_rectangular(2));
}

TEST(PartitionSpec, RenderOneCharPerElement) {
  PartitionSpec s;
  s.n = 2;
  s.subplda = 1;
  s.subpldb = 2;
  s.subp = {0, 1};
  s.subph = {2};
  s.subpw = {1, 1};
  EXPECT_EQ(s.render(), "01\n01\n");
  EXPECT_THROW(s.render(0), std::invalid_argument);
}

}  // namespace
}  // namespace summagen::partition

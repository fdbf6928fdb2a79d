// Tests of the shared k-panel broadcast helper (the single implementation
// behind the A/B panel movement of both classic SUMMA and 2.5D): owner
// segmentation at uneven block boundaries, zero-staging delivery into
// strided workspaces, stat accounting, and the degenerate parts==1 and
// modeled-plane paths.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/core/panel_bcast.hpp"
#include "src/mpi/mpi.hpp"
#include "src/util/matrix.hpp"
#include "src/util/matrix_view.hpp"

namespace summagen::core {
namespace {

using summagen::util::ConstMatrixView;
using summagen::util::Matrix;
using summagen::util::MatrixView;

sgmpi::Config small_config(int nranks) {
  sgmpi::Config config;
  config.nranks = nranks;
  return config;
}

TEST(PanelBcast, BalancedSplitHelpers) {
  // 10 over 3 parts: sizes 4, 3, 3 at offsets 0, 4, 7.
  EXPECT_EQ(balanced_part_offset(10, 3, 0), 0);
  EXPECT_EQ(balanced_part_offset(10, 3, 1), 4);
  EXPECT_EQ(balanced_part_offset(10, 3, 2), 7);
  EXPECT_EQ(balanced_part_offset(10, 3, 3), 10);
  EXPECT_EQ(balanced_part_size(10, 3, 0), 4);
  EXPECT_EQ(balanced_part_size(10, 3, 1), 3);
  EXPECT_EQ(balanced_part_size(10, 3, 2), 3);
}

// Three ranks each own a column band of a 10-column A (widths 4, 3, 3);
// a panel straddling the 0/1 boundary must arrive in every rank's
// workspace as two broadcasts, bit-identical to the global operand.
TEST(PanelBcast, APanelStraddlingOwnerBoundary) {
  const std::int64_t n = 10;
  const std::int64_t my_rows = 5;
  const std::int64_t k0 = 2, bcur = 4;  // covers owner 0 ([2,4)) + 1 ([4,6))
  Matrix global(my_rows, n);
  for (std::int64_t i = 0; i < my_rows; ++i) {
    for (std::int64_t j = 0; j < n; ++j) global(i, j) = 100.0 * i + j;
  }
  sgmpi::Runtime rt(small_config(3));
  rt.run([&](sgmpi::Comm& world) {
    const int me = world.rank();
    const std::int64_t col0 = balanced_part_offset(n, 3, me);
    const std::int64_t cols = balanced_part_size(n, 3, me);
    // Each rank's local block = its column band of the global operand.
    const Matrix block = util::materialize(util::block_view(
        static_cast<const Matrix&>(global), 0, col0, my_rows, cols));
    std::vector<double> wa(static_cast<std::size_t>(my_rows * bcur), -1.0);
    const MatrixView dst(wa.data(), my_rows, bcur, bcur);

    const PanelBcastStats stats =
        bcast_k_panel(world, PanelAxis::kA, n, 3, me, my_rows, k0, bcur,
                      ConstMatrixView(block), dst);
    EXPECT_EQ(stats.bcasts, 2);  // one per owner segment
    EXPECT_EQ(stats.bytes, my_rows * bcur *
                               static_cast<std::int64_t>(sizeof(double)));
    for (std::int64_t i = 0; i < my_rows; ++i) {
      for (std::int64_t j = 0; j < bcur; ++j) {
        EXPECT_EQ(dst(i, j), global(i, k0 + j)) << "rank " << me;
      }
    }
  });
}

TEST(PanelBcast, BPanelStraddlingOwnerBoundary) {
  const std::int64_t n = 7;
  const std::int64_t my_cols = 4;
  const std::int64_t k0 = 3, bcur = 3;  // owners 0 ([3,4)) and 1 ([4,6))
  Matrix global(n, my_cols);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < my_cols; ++j) global(i, j) = 10.0 * i + j;
  }
  sgmpi::Runtime rt(small_config(2));
  rt.run([&](sgmpi::Comm& world) {
    const int me = world.rank();
    const std::int64_t row0 = balanced_part_offset(n, 2, me);
    const std::int64_t rows = balanced_part_size(n, 2, me);
    const Matrix block = util::materialize(util::block_view(
        static_cast<const Matrix&>(global), row0, 0, rows, my_cols));
    std::vector<double> wb(static_cast<std::size_t>(bcur * my_cols), -1.0);
    const MatrixView dst(wb.data(), bcur, my_cols, my_cols);

    const PanelBcastStats stats =
        bcast_k_panel(world, PanelAxis::kB, n, 2, me, my_cols, k0, bcur,
                      ConstMatrixView(block), dst);
    EXPECT_EQ(stats.bcasts, 2);
    for (std::int64_t i = 0; i < bcur; ++i) {
      for (std::int64_t j = 0; j < my_cols; ++j) {
        EXPECT_EQ(dst(i, j), global(k0 + i, j)) << "rank " << me;
      }
    }
  });
}

TEST(PanelBcast, SinglePartIsLocalCopyWithoutBroadcasts) {
  const std::int64_t n = 6;
  Matrix block(3, n);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < n; ++j) block(i, j) = i + 10.0 * j;
  }
  sgmpi::Runtime rt(small_config(1));
  rt.run([&](sgmpi::Comm& world) {
    std::vector<double> wa(static_cast<std::size_t>(3 * n), -1.0);
    const MatrixView dst(wa.data(), 3, n, n);
    const PanelBcastStats stats = bcast_k_panel(
        world, PanelAxis::kA, n, 1, 0, 3, 0, n, ConstMatrixView(block), dst);
    EXPECT_EQ(stats.bcasts, 0);
    EXPECT_EQ(stats.bytes, 0);
    EXPECT_EQ(stats.mpi_time_s, 0.0);
    EXPECT_EQ(world.clock().now(), 0.0);
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t j = 0; j < n; ++j) EXPECT_EQ(dst(i, j), block(i, j));
    }
  });
}

TEST(PanelBcast, ModeledPlaneMovesClockAndCountersOnly) {
  const std::int64_t n = 8;
  sgmpi::Runtime rt(small_config(2));
  rt.run([&](sgmpi::Comm& world) {
    const PanelBcastStats stats =
        bcast_k_panel(world, PanelAxis::kA, n, 2, world.rank(), 5, 0, n,
                      ConstMatrixView{}, MatrixView{});
    EXPECT_EQ(stats.bcasts, 2);  // the panel spans both owners
    EXPECT_EQ(stats.bytes,
              5 * n * static_cast<std::int64_t>(sizeof(double)));
    EXPECT_GT(stats.mpi_time_s, 0.0);
  });
}

TEST(PanelBcast, ValidatesArguments) {
  sgmpi::Runtime rt(small_config(1));
  rt.run([](sgmpi::Comm& world) {
    Matrix block(2, 4);
    std::vector<double> wa(8, 0.0);
    const MatrixView dst(wa.data(), 2, 4, 4);
    EXPECT_THROW(bcast_k_panel(world, PanelAxis::kA, 4, 1, 1, 2, 0, 4,
                               ConstMatrixView(block), dst),
                 std::invalid_argument);  // my_index outside parts
    EXPECT_THROW(bcast_k_panel(world, PanelAxis::kA, 4, 1, 0, 2, 2, 4,
                               ConstMatrixView(block), dst),
                 std::invalid_argument);  // panel exceeds [0, n)
    EXPECT_THROW(bcast_k_panel(world, PanelAxis::kA, 4, 1, 0, 3, 0, 4,
                               ConstMatrixView(block), dst),
                 std::invalid_argument);  // workspace shape mismatch
  });
}

}  // namespace
}  // namespace summagen::core

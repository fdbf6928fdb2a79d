// Tests of the strided panel transport: bcast_panel / ibcast_panel move a
// sub-matrix of the root's buffer straight into every rank's (differently
// strided) destination with no intermediate staging. Virtual timing must
// match the contiguous byte collectives carrying the same payload size.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/mpi/mpi.hpp"
#include "src/util/matrix.hpp"
#include "src/util/matrix_view.hpp"

namespace summagen::sgmpi {
namespace {

using summagen::util::ConstMatrixView;
using summagen::util::Matrix;
using summagen::util::MatrixView;
using summagen::util::block_view;

Config small_config(int nranks) {
  Config config;
  config.nranks = nranks;
  return config;
}

Matrix numbered(std::int64_t rows, std::int64_t cols, double base = 0.0) {
  Matrix m(rows, cols);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) m(i, j) = base + 100.0 * i + j;
  }
  return m;
}

TEST(Panel, BcastDeliversStridedBlockToStridedDestinations) {
  Runtime rt(small_config(3));
  rt.run([](Comm& world) {
    // Root 1 broadcasts a 3x4 block living inside a 6x8 matrix; every rank
    // receives into a block of its own 5x9 frame.
    Matrix src = numbered(6, 8, world.rank() == 1 ? 1000.0 : -1.0);
    Matrix frame(5, 9);
    frame.fill(0.0);
    MatrixView dst = block_view(frame, 1, 2, 3, 4);
    if (world.rank() == 1) {
      world.bcast_panel(block_view(static_cast<const Matrix&>(src), 2, 3,
                                   3, 4),
                        dst, 1);
    } else {
      world.bcast_panel({}, dst, 1);
    }
    // Root values: src(2+i, 3+j) with base 1000.
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t j = 0; j < 4; ++j) {
        EXPECT_EQ(frame(1 + i, 2 + j), 1000.0 + 100.0 * (2 + i) + (3 + j));
      }
    }
    // The frame outside the destination block is untouched.
    EXPECT_EQ(frame(0, 0), 0.0);
    EXPECT_EQ(frame(4, 8), 0.0);
  });
}

TEST(Panel, IbcastRootMayOmitLocalStore) {
  Runtime rt(small_config(2));
  rt.run([](Comm& world) {
    Matrix src = numbered(4, 4, 500.0);
    Matrix dst(2, 2);
    dst.fill(-3.0);
    Request r;
    if (world.rank() == 0) {
      // Root already holds the data in place: pass an empty destination.
      r = world.ibcast_panel(block_view(static_cast<const Matrix&>(src), 0,
                                        0, 2, 2),
                             MatrixView{}, 0);
    } else {
      r = world.ibcast_panel({}, MatrixView(dst), 0);
    }
    world.wait(r);
    if (world.rank() == 0) {
      EXPECT_EQ(dst(0, 0), -3.0);  // untouched
    } else {
      EXPECT_EQ(dst(1, 1), 500.0 + 100.0 + 1.0);
    }
  });
}

TEST(Panel, BcastTimingMatchesContiguousBytes) {
  // Two runtimes with the same topology: a panel broadcast of r x c
  // doubles must advance the virtual clock exactly like bcast_bytes of
  // r*c*8 bytes (the zero-copy refactor cannot change modeled time).
  const int nranks = 4;
  const std::int64_t r = 12, c = 7;
  std::vector<double> panel_done(nranks), bytes_done(nranks);
  {
    Runtime rt(small_config(nranks));
    rt.run([&](Comm& world) {
      Matrix src = numbered(r, c);
      Matrix dst(r, c);
      if (world.rank() == 0) {
        world.bcast_panel(ConstMatrixView(src), MatrixView(dst), 0);
      } else {
        world.bcast_panel({}, MatrixView(dst), 0);
      }
      panel_done[static_cast<std::size_t>(world.rank())] =
          world.clock().now();
    });
  }
  {
    Runtime rt(small_config(nranks));
    rt.run([&](Comm& world) {
      std::vector<double> buf(static_cast<std::size_t>(r * c));
      world.bcast_bytes(buf.data(),
                        r * c * static_cast<std::int64_t>(sizeof(double)), 0);
      bytes_done[static_cast<std::size_t>(world.rank())] =
          world.clock().now();
    });
  }
  for (int i = 0; i < nranks; ++i) {
    EXPECT_DOUBLE_EQ(panel_done[static_cast<std::size_t>(i)],
                     bytes_done[static_cast<std::size_t>(i)])
        << "rank " << i;
  }
}

TEST(Panel, SingleMemberBcastIsLocalCopy) {
  Runtime rt(small_config(1));
  rt.run([](Comm& world) {
    Matrix src = numbered(3, 3);
    Matrix dst(3, 3);
    dst.fill(0.0);
    world.bcast_panel(ConstMatrixView(src), MatrixView(dst), 0);
    EXPECT_EQ(world.clock().now(), 0.0);
    EXPECT_EQ(dst(2, 1), 201.0);
  });
}

TEST(Panel, ShapeMismatchAcrossMembersThrows) {
  Runtime rt(small_config(2));
  EXPECT_THROW(
      rt.run([](Comm& world) {
        Matrix buf(4, 4);
        if (world.rank() == 0) {
          world.bcast_panel(block_view(static_cast<const Matrix&>(buf), 0, 0,
                                       2, 3),
                            MatrixView{}, 0);
        } else {
          world.bcast_panel({}, block_view(buf, 0, 0, 3, 2), 0);
        }
      }),
      std::invalid_argument);
}

TEST(Panel, NonRootMustPassEmptySource) {
  Runtime rt(small_config(2));
  EXPECT_THROW(rt.run([](Comm& world) {
                 Matrix src = numbered(2, 2);
                 Matrix dst(2, 2);
                 // Both ranks pass a source; rank 1 is not the root.
                 world.bcast_panel(ConstMatrixView(src), MatrixView(dst), 0);
               }),
               std::invalid_argument);
}

}  // namespace
}  // namespace summagen::sgmpi

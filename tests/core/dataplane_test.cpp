#include "src/core/dataplane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/summagen.hpp"
#include "src/device/platform.hpp"
#include "src/partition/areas.hpp"
#include "src/partition/nrrp.hpp"
#include "src/partition/shapes.hpp"
#include "src/util/rng.hpp"

namespace summagen::core {
namespace {

partition::PartitionSpec corner16() {
  return partition::build_shape(partition::Shape::kSquareCorner, 16,
                                {81, 159, 16});
}

TEST(LocalData, DefaultIsModeledPlane) {
  LocalData d;
  EXPECT_FALSE(d.numeric());
  util::Matrix c(16, 16);
  EXPECT_THROW(d.gather_c(c), std::logic_error);
}

TEST(LocalData, ExtractsExactlyOwnedParts) {
  const auto spec = corner16();
  util::Matrix a(16, 16), b(16, 16);
  util::fill_random(a, 1);
  util::fill_random(b, 2);

  const RunStores stores(spec, 3, a, b);
  const LocalData& d0 = *stores.at(0);
  EXPECT_TRUE(d0.numeric());
  EXPECT_TRUE(d0.owns(0, 0));
  EXPECT_FALSE(d0.owns(0, 1));
  EXPECT_EQ(d0.a_part(0, 0).rows(), 9);
  EXPECT_EQ(d0.a_part(0, 0).cols(), 9);
  EXPECT_EQ(d0.a_part(0, 0)(0, 0), a(0, 0));
  EXPECT_EQ(d0.a_part(0, 0)(8, 8), a(8, 8));
  EXPECT_THROW(d0.a_part(0, 1), std::out_of_range);
  EXPECT_THROW(d0.b_part(2, 2), std::out_of_range);

  const LocalData& d2 = *stores.at(2);
  EXPECT_EQ(d2.a_part(2, 2)(0, 0), a(12, 12));
  EXPECT_EQ(d2.b_part(2, 2)(3, 3), b(15, 15));
}

TEST(LocalData, CRectIsCoveringRectangle) {
  const auto spec = corner16();
  util::Matrix a(16, 16), b(16, 16);
  const RunStores stores(spec, 3, a, b);
  const LocalData& d1 = *stores.at(1);
  EXPECT_EQ(d1.c_rect().rows, 16);
  EXPECT_EQ(d1.c_rect().cols, 16);
  EXPECT_EQ(d1.c().rows(), 16);

  const LocalData& d2 = *stores.at(2);
  EXPECT_EQ(d2.c_rect().row0, 12);
  EXPECT_EQ(d2.c().rows(), 4);
  EXPECT_EQ(d2.c().cols(), 4);
}

TEST(LocalData, GatherWritesOnlyOwnedCells) {
  const auto spec = corner16();
  util::Matrix a(16, 16), b(16, 16);
  const RunStores stores(spec, 3, a, b);
  LocalData& d0 = *stores.at(0);
  d0.c().fill(7.0);  // pretend rank 0 computed its 9x9 zone

  util::Matrix global(16, 16, -1.0);
  d0.gather_c(global);
  EXPECT_EQ(global(0, 0), 7.0);
  EXPECT_EQ(global(8, 8), 7.0);
  EXPECT_EQ(global(0, 9), -1.0);   // P1's cell untouched
  EXPECT_EQ(global(15, 15), -1.0);  // P2's cell untouched
}

TEST(LocalData, GatherOfNonRectangularZone) {
  const auto spec = corner16();
  util::Matrix a(16, 16), b(16, 16);
  const RunStores stores(spec, 3, a, b);
  LocalData& d1 = *stores.at(1);
  d1.c().fill(3.0);
  util::Matrix global(16, 16, 0.0);
  d1.gather_c(global);
  // P1's zone excludes the two corner squares.
  EXPECT_EQ(global(0, 0), 0.0);
  EXPECT_EQ(global(15, 15), 0.0);
  EXPECT_EQ(global(0, 12), 3.0);
  EXPECT_EQ(global(12, 0), 3.0);
  EXPECT_EQ(global(10, 10), 3.0);
}

TEST(LocalData, RejectsWrongGlobalShape) {
  const auto spec = corner16();
  util::Matrix a(16, 15), b(16, 16);
  EXPECT_THROW(RunStores(spec, 3, a, b), std::invalid_argument);
}

// One run's lease holds every rank's receive slots: exactly one per block
// another rank owns in an A row or a B column the rank appears in, h x w
// with ld w; none for an owned block, which a DGEMM reads in place inside
// the global operand; and no two slots share an element.
TEST(RunStores, WorkspaceSlicesAreExactAndDisjoint) {
  const std::int64_t n = 203;  // odd: slots do not end on a 64-byte line
  std::vector<std::pair<std::string, partition::PartitionSpec>> specs;
  const auto areas = partition::partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  for (partition::Shape shape : partition::all_shapes()) {
    specs.emplace_back(partition::shape_name(shape),
                       partition::build_shape(shape, n, areas));
  }
  std::vector<std::int64_t> nrrp_areas(64, n * n / 64);
  nrrp_areas[0] += n * n - 64 * (n * n / 64);
  specs.emplace_back("nrrp p=64", partition::nrrp_partition(n, nrrp_areas));

  util::Matrix a(n, n), b(n, n);
  for (const auto& [name, spec] : specs) {
    const int p = spec.nprocs();
    const RunStores stores(spec, p, a, b);
    const auto roff = spec.row_offsets();
    const auto coff = spec.col_offsets();
    std::vector<util::ConstMatrixView> slots;
    for (int r = 0; r < p; ++r) {
      const LocalData& d = *stores.at(r);
      for (int bi = 0; bi < spec.subplda; ++bi) {
        for (int bj = 0; bj < spec.subpldb; ++bj) {
          const std::int64_t h = spec.subph[static_cast<std::size_t>(bi)];
          const std::int64_t w = spec.subpw[static_cast<std::size_t>(bj)];
          const std::string where = name + " rank " + std::to_string(r) +
                                    " block (" + std::to_string(bi) + "," +
                                    std::to_string(bj) + ")";
          const bool owned = spec.owner(bi, bj) == r;
          if (owned && h > 0 && w > 0) {
            EXPECT_EQ(d.a_block(bi, bj).data(),
                      a.data() + roff[static_cast<std::size_t>(bi)] * n +
                          coff[static_cast<std::size_t>(bj)])
                << where;
            EXPECT_EQ(d.b_block(bi, bj).data(),
                      b.data() + roff[static_cast<std::size_t>(bi)] * n +
                          coff[static_cast<std::size_t>(bj)])
                << where;
          }
          const bool sized = h > 0 && w > 0 && !owned;
          const auto check = [&](bool receives, const char* which,
                                 auto slot_of, auto block_of) {
            if (!receives) {
              EXPECT_THROW(slot_of(), std::out_of_range) << which << where;
              return;
            }
            const util::MatrixView slot = slot_of();
            EXPECT_EQ(slot.rows(), h) << which << where;
            EXPECT_EQ(slot.cols(), w) << which << where;
            EXPECT_EQ(slot.ld(), w) << which << where;
            EXPECT_EQ(block_of().data(), slot.data()) << which << where;
            slots.push_back(slot);
          };
          check(sized && spec.row_contains(r, bi), "A",
                [&] { return d.a_slot(bi, bj); },
                [&] { return d.a_block(bi, bj); });
          check(sized && spec.col_contains(r, bj), "B",
                [&] { return d.b_slot(bi, bj); },
                [&] { return d.b_block(bi, bj); });
        }
      }
    }
    // Sorted by address, each contiguous slot ends before the next begins.
    std::sort(slots.begin(), slots.end(),
              [](const util::ConstMatrixView& x,
                 const util::ConstMatrixView& y) {
                return std::less<const double*>{}(x.data(), y.data());
              });
    for (std::size_t i = 1; i < slots.size(); ++i) {
      EXPECT_FALSE(util::views_overlap(slots[i - 1], slots[i]))
          << name << ": slots " << i - 1 << " and " << i;
    }
  }
}

// Released, the lease leaves every receive slot empty, and summagen_rank
// refuses a store without its workspace rather than touch pool memory the
// store no longer holds.
TEST(RunStores, ReleasedWorkspaceIsRefused) {
  const auto spec = corner16();
  util::Matrix a(16, 16), b(16, 16);
  RunStores stores(spec, 3, a, b);
  stores.release_workspace();
  // Rank 0 receives rank 1's A(0, 1) along row 0 and B(1, 0) down column 0.
  EXPECT_TRUE(stores.at(0)->a_slot(0, 1).empty());
  EXPECT_TRUE(stores.at(0)->b_slot(1, 0).empty());
  const auto processors = device::Platform::hclserver1().processors();
  sgmpi::Config mpi_config;
  mpi_config.nranks = 3;
  sgmpi::Runtime runtime(mpi_config);
  EXPECT_THROW(runtime.run([&](sgmpi::Comm& world) {
    summagen_rank(world, spec,
                  processors[static_cast<std::size_t>(world.rank())],
                  stores.at(world.rank()));
  }),
               std::invalid_argument);
}

}  // namespace
}  // namespace summagen::core

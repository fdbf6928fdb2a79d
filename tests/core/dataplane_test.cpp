#include "src/core/dataplane.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
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

// Sum of `sizes` over the span {first, count}: a WA/WB extent computed
// independently of RunStores.
std::int64_t span_extent(const std::vector<std::int64_t>& sizes,
                         std::pair<int, int> span) {
  const auto first = sizes.begin() + span.first;
  return std::accumulate(first, first + span.second, std::int64_t{0});
}

// One run's lease holds every rank's WA and WB: each slice is exactly the
// paper's extent in today's layout (rows x n with ld n, n x cols with ld
// cols), and no two of the 2p slices share an element.
TEST(RunStores, WorkspaceSlicesAreExactAndDisjoint) {
  const std::int64_t n = 203;  // odd: slices do not end on a 64-byte line
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
    std::vector<util::ConstMatrixView> slices;
    for (int r = 0; r < p; ++r) {
      const LocalData& d = *stores.at(r);
      const std::int64_t rows = span_extent(spec.subph, spec.row_span(r));
      const std::int64_t cols = span_extent(spec.subpw, spec.col_span(r));
      EXPECT_EQ(d.wa().rows(), rows) << name << " rank " << r;
      EXPECT_EQ(d.wa().cols(), n) << name << " rank " << r;
      EXPECT_EQ(d.wa().ld(), n) << name << " rank " << r;
      EXPECT_EQ(d.wb().rows(), n) << name << " rank " << r;
      EXPECT_EQ(d.wb().cols(), cols) << name << " rank " << r;
      EXPECT_EQ(d.wb().ld(), cols) << name << " rank " << r;
      slices.push_back(d.wa());
      slices.push_back(d.wb());
    }
    for (std::size_t i = 0; i < slices.size(); ++i) {
      for (std::size_t j = i + 1; j < slices.size(); ++j) {
        EXPECT_FALSE(util::views_overlap(slices[i], slices[j]))
            << name << ": slices " << i << " and " << j;
      }
    }
  }
}

// Released, the lease leaves every WA and WB empty, and summagen_rank
// refuses a store without its workspace rather than touch pool memory the
// store no longer holds.
TEST(RunStores, ReleasedWorkspaceIsRefused) {
  const auto spec = corner16();
  util::Matrix a(16, 16), b(16, 16);
  RunStores stores(spec, 3, a, b);
  stores.release_workspace();
  EXPECT_TRUE(stores.at(0)->wa().empty());
  EXPECT_TRUE(stores.at(0)->wb().empty());
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

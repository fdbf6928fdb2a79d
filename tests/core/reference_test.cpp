// Numeric runs are verified by core::max_abs_error_vs_reference, which
// streams scalar-tier reference bands across the shared pool instead of
// building core::reference_multiply whole. Both stay pinned here: the
// reference to the naive oracle (memcmp), and the streamed check to the
// whole-matrix comparison against that reference — the same bits on
// accurate and corrupted products alike, on any pool width. A reference that
// drifts from the triple loop, or a check that drifts from the reference,
// would silently move every verdict.
#include "src/core/reference.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/partition/areas.hpp"
#include "src/partition/shapes.hpp"
#include "src/pool/pool.hpp"
#include "src/util/accounting.hpp"
#include "src/util/buffer_pool.hpp"
#include "src/util/rng.hpp"

namespace summagen::core {
namespace {

struct Dims {
  std::int64_t m, k, n;
};

// Square and ragged shapes; 515 leaves a remainder against the scalar
// tier's MR = 4, NR = 8 and KC = 256, and crosses two KC blocks.
const Dims kDims[] = {{1, 1, 1},       {7, 7, 7},       {127, 127, 127},
                      {384, 384, 384}, {515, 515, 515}, {7, 384, 127},
                      {515, 7, 1},     {127, 515, 384}};

TEST(Reference, MemcmpIdenticalToNaiveKernel) {
  for (const Dims& d : kDims) {
    util::Matrix a(d.m, d.k), b(d.k, d.n);
    util::fill_random(a, 71);
    util::fill_random(b, 72);
    const util::Matrix got = reference_multiply(a, b);
    const util::Matrix want =
        blas::multiply(a, b, {.kernel = blas::GemmKernel::kNaive});
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(d.m * d.n) *
                              sizeof(double)),
              0)
        << d.m << "x" << d.k << " * " << d.k << "x" << d.n;
  }
}

TEST(Reference, StreamedVerifyShapeMismatchThrows) {
  const util::Matrix a(4, 3), b(3, 5);
  EXPECT_THROW(max_abs_error_vs_reference(a, b, util::Matrix(4, 4)),
               std::invalid_argument);
  EXPECT_THROW(max_abs_error_vs_reference(a, util::Matrix(4, 5),
                                          util::Matrix(4, 5)),
               std::invalid_argument);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The streamed check's verify band (reference.cpp).
constexpr std::int64_t kBand = 64;

// Runs each test with the shared pool at the given worker count (0: the
// caller computes every band inline), so a band split that leaked the
// pool width into the result would show as differing bits.
class StreamedVerify : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    workers_before_ = sgpool::Pool::instance().size();
    sgpool::Pool::configure(GetParam());
  }
  void TearDown() override { sgpool::Pool::configure(workers_before_); }

 private:
  int workers_before_ = 0;
};

// Differential: C from the default packed kernel (on an AVX2 host its FMA
// chain leaves a non-zero error), streamed result vs the whole-matrix one.
TEST_P(StreamedVerify, MatchesWholeReferenceBitForBit) {
  std::vector<Dims> dims;
  for (std::int64_t n :
       {std::int64_t{1}, std::int64_t{7}, kBand - 1, kBand, kBand + 1,
        std::int64_t{515}, std::int64_t{1024}}) {
    dims.push_back({n, n, n});
  }
  dims.insert(dims.end(), {{7, 384, 127}, {515, 7, 1}, {127, 515, 384},
                           {kBand + 1, 1, 300}});
  const bool fused =
      blas::resolve_simd_tier(blas::SimdTier::kAuto) == blas::SimdTier::kAvx2;
  for (const Dims& d : dims) {
    util::Matrix a(d.m, d.k), b(d.k, d.n);
    util::fill_random(a, 81);
    util::fill_random(b, 82);
    const util::Matrix c = blas::multiply(a, b);
    const double whole =
        util::Matrix::max_abs_diff(c, reference_multiply(a, b));
    const double streamed = max_abs_error_vs_reference(a, b, c);
    EXPECT_EQ(bits(streamed), bits(whole))
        << d.m << "x" << d.k << " * " << d.k << "x" << d.n << ": " << streamed
        << " vs " << whole;
    if (fused && d.m == 1024) {
      EXPECT_GT(whole, 0.0);
    }
  }
}

// ROADMAP item 3's mutation matrix, applied to the exact check: corrupt C
// by a delta just above and just below the tolerance at single elements
// (a band's first and last row, C's last element), along a whole row and
// over one rank's owned block of a paper-shape spec. The streamed and
// whole-matrix paths must give the same bits, so the same verdict, and
// the verdict must follow the delta. Then plant a NaN, +Inf or -Inf at
// each region instead: a C carrying one never verifies, and a NaN makes
// the error NaN whatever finite errors the rest of C carries.
TEST_P(StreamedVerify, MutationMatrixMatchesWholeReference) {
  constexpr std::int64_t n = 515;
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, 91);
  util::fill_random(b, 92);
  const util::Matrix base = blas::multiply(a, b);
  const util::Matrix ref = reference_multiply(a, b);
  const double tol = gemm_tolerance(n);

  struct Region {
    std::string name;
    std::int64_t r0, r1, c0, c1;  // half-open
  };
  std::vector<Region> regions = {
      {"band first row", kBand, kBand + 1, 17, 18},
      {"band last row", 2 * kBand - 1, 2 * kBand, 0, 1},
      {"last element", n - 1, n, n - 1, n},
      {"whole row", 300, 301, 0, n},
  };
  const std::vector<std::int64_t> areas =
      partition::partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  const partition::PartitionSpec spec =
      partition::build_shape(partition::Shape::kSquareCorner, n, areas);
  const int smallest = partition::ranks_by_area(areas).back();
  const std::vector<std::int64_t> rows = spec.row_offsets();
  const std::vector<std::int64_t> cols = spec.col_offsets();
  for (int bi = 0; bi < spec.subplda; ++bi) {
    for (int bj = 0; bj < spec.subpldb; ++bj) {
      const std::size_t i = static_cast<std::size_t>(bi);
      const std::size_t j = static_cast<std::size_t>(bj);
      if (spec.owner(bi, bj) == smallest && rows[i + 1] > rows[i] &&
          cols[j + 1] > cols[j]) {
        regions.push_back({"owned block (" + std::to_string(bi) + "," +
                               std::to_string(bj) + ")",
                           rows[i], rows[i + 1], cols[j], cols[j + 1]});
      }
    }
  }
  ASSERT_GT(regions.size(), 4u) << "spec has no owned block to corrupt";

  for (const Region& region : regions) {
    for (const double scale : {1.01, 0.99}) {
      util::Matrix c = base;
      for (std::int64_t i = region.r0; i < region.r1; ++i) {
        for (std::int64_t j = region.c0; j < region.c1; ++j) {
          c(i, j) += ((i + j) % 2 == 0 ? 1.0 : -1.0) * scale * tol;
        }
      }
      const double whole = util::Matrix::max_abs_diff(c, ref);
      const double streamed = max_abs_error_vs_reference(a, b, c);
      EXPECT_EQ(bits(streamed), bits(whole))
          << region.name << " x" << scale << ": " << streamed << " vs "
          << whole;
      EXPECT_EQ(streamed <= tol, scale < 1.0)
          << region.name << " x" << scale << ": error " << streamed
          << ", tolerance " << tol;
    }
  }

  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    for (const Region& region : regions) {
      util::Matrix c = base;
      c(region.r0, region.c0) = poison;
      const double whole = util::Matrix::max_abs_diff(c, ref);
      const double streamed = max_abs_error_vs_reference(a, b, c);
      EXPECT_FALSE(streamed <= tol) << region.name << " " << poison;
      EXPECT_FALSE(whole <= tol) << region.name << " " << poison;
      EXPECT_EQ(std::isnan(streamed), std::isnan(poison)) << region.name;
      EXPECT_EQ(std::isnan(whole), std::isnan(poison)) << region.name;
      if (!std::isnan(poison)) {
        EXPECT_EQ(bits(streamed), bits(whole)) << region.name;
      }
    }
  }
}

// Memory-flat: the check's fresh scratch is at most one band of the
// reference plus the scalar kernel's 256 x 512 B block and 64 x 256 A
// block per participating thread, never an n x n reference (8 MiB here).
TEST_P(StreamedVerify, ScratchIsBandSizedPerThread) {
  constexpr std::int64_t n = 1024;
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, 111);
  util::fill_random(b, 112);
  const util::Matrix c = reference_multiply(a, b);
  util::BufferPool::instance().trim();
  util::StatsSink sink;
  {
    util::ScopedStatsSink guard(&sink);
    EXPECT_EQ(max_abs_error_vs_reference(a, b, c), 0.0);
  }
  const std::int64_t per_thread =
      (kBand * n + 256 * 512 + kBand * 256) *
      static_cast<std::int64_t>(sizeof(double));
  const std::int64_t threads = sgpool::Pool::instance().size() + 1;
  EXPECT_LE(sink.snapshot().alloc_bytes, threads * per_thread);
  if (GetParam() == 0) {
    EXPECT_LT(sink.snapshot().alloc_bytes,
              n * n * static_cast<std::int64_t>(sizeof(double)) / 4);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolWorkers, StreamedVerify, ::testing::Values(0, 3),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return "workers" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace summagen::core

#include "src/partition/nrrp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>

#include "src/partition/areas.hpp"
#include "src/util/rng.hpp"

namespace summagen::partition {
namespace {

std::vector<std::int64_t> equal_areas(std::int64_t n, int p) {
  std::vector<std::int64_t> areas(static_cast<std::size_t>(p), n * n / p);
  areas[0] += n * n - p * (n * n / p);
  return areas;
}

TEST(Nrrp, SingleProcessorOwnsEverything) {
  const auto spec = nrrp_partition(64, {64 * 64});
  EXPECT_EQ(spec.area_of(0), 64 * 64);
  EXPECT_TRUE(spec.is_rectangular(0));
}

TEST(Nrrp, TwoBalancedProcessorsGuillotine) {
  // Equal areas: the corner layout loses (2s > min side), so both zones
  // are rectangles.
  const auto spec = nrrp_partition(128, equal_areas(128, 2));
  spec.validate(2);
  EXPECT_TRUE(spec.is_rectangular(0));
  EXPECT_TRUE(spec.is_rectangular(1));
  EXPECT_NEAR(static_cast<double>(spec.area_of(0)),
              static_cast<double>(spec.area_of(1)), 256.0);
}

TEST(Nrrp, TwoSkewedProcessorsCornerLeaf) {
  // Ratio 9:1 — well past the 3:1 crossover; the small zone must be a
  // corner square and the big zone non-rectangular.
  const std::int64_t n = 120;
  const auto areas = partition_areas_cpm(n * n, {9.0, 1.0});
  const auto spec = nrrp_partition(n, areas);
  spec.validate(2);
  EXPECT_FALSE(spec.is_rectangular(0));
  EXPECT_TRUE(spec.is_rectangular(1));
  const Rect sq = spec.covering(1);
  EXPECT_EQ(sq.rows, sq.cols);
  // Half-perimeter beats the straight-line split's 3n.
  EXPECT_LT(spec.total_half_perimeter(), 3 * n);
}

TEST(Nrrp, RectangularOnlyModeNeverEmitsNonRectZones) {
  util::Rng rng(3);
  NrrpOptions opts;
  opts.allow_non_rectangular = false;
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t n = 200;
    std::vector<double> speeds;
    const int p = static_cast<int>(rng.uniform_int(2, 8));
    for (int i = 0; i < p; ++i) speeds.push_back(rng.uniform(0.1, 5.0));
    const auto areas = partition_areas_cpm(n * n, speeds);
    const auto spec = nrrp_partition(n, areas, opts);
    for (int r = 0; r < p; ++r) {
      EXPECT_TRUE(spec.is_rectangular(r)) << "trial " << trial;
    }
  }
}

TEST(Nrrp, ExactCoverForManyProcessorCounts) {
  for (int p : {2, 3, 5, 8, 13, 16}) {
    const std::int64_t n = 160;
    const auto spec = nrrp_partition(n, equal_areas(n, p));
    spec.validate(p);
    std::int64_t sum = 0;
    for (int r = 0; r < p; ++r) sum += spec.area_of(r);
    EXPECT_EQ(sum, n * n) << "p=" << p;
  }
}

TEST(Nrrp, AreasApproximateRequests) {
  util::Rng rng(17);
  for (int trial = 0; trial < 15; ++trial) {
    const std::int64_t n = 256;
    const int p = static_cast<int>(rng.uniform_int(2, 10));
    std::vector<double> speeds;
    for (int i = 0; i < p; ++i) speeds.push_back(rng.uniform(0.3, 3.0));
    const auto areas = partition_areas_cpm(n * n, speeds);
    const auto spec = nrrp_partition(n, areas);
    for (int r = 0; r < p; ++r) {
      // Integer cuts cost at most ~one row/column of the zone's extent per
      // recursion level (log2 p levels).
      const double slack =
          4.0 * static_cast<double>(n) * std::log2(p + 1);
      EXPECT_NEAR(static_cast<double>(spec.area_of(r)),
                  static_cast<double>(areas[static_cast<std::size_t>(r)]),
                  slack)
          << "trial " << trial << " p=" << p << " rank " << r;
    }
  }
}

TEST(Nrrp, QualityWithinApproximationBand) {
  // Random heterogeneous instances: the half-perimeter quality should stay
  // in a tight band above the universal lower bound. (The continuous NRRP
  // guarantee is 1.1547; integer effects can push slightly past it.)
  util::Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t n = 512;
    const int p = static_cast<int>(rng.uniform_int(2, 12));
    std::vector<double> speeds;
    for (int i = 0; i < p; ++i) speeds.push_back(rng.uniform(0.2, 4.0));
    const auto areas = partition_areas_cpm(n * n, speeds);
    const auto spec = nrrp_partition(n, areas);
    EXPECT_LT(nrrp_quality(spec), 1.35)
        << "trial " << trial << " p=" << p;
    EXPECT_GE(nrrp_quality(spec), 1.0);
  }
}

TEST(Nrrp, CornerLeavesImproveSkewedInstances) {
  // With strong two-group heterogeneity the corner option must not lose to
  // the rectangular-only dissection.
  const std::int64_t n = 240;
  const auto areas = partition_areas_cpm(n * n, {10.0, 1.0});
  const auto with_corners = nrrp_partition(n, areas);
  NrrpOptions opts;
  opts.allow_non_rectangular = false;
  const auto rect_only = nrrp_partition(n, areas, opts);
  EXPECT_LE(with_corners.total_half_perimeter(),
            rect_only.total_half_perimeter());
}

TEST(Nrrp, ZeroAreaProcessorsAllowed) {
  const std::int64_t n = 64;
  const auto spec = nrrp_partition(n, {n * n / 2, 0, n * n - n * n / 2});
  spec.validate(3);
  EXPECT_EQ(spec.area_of(1), 0);
  EXPECT_EQ(spec.area_of(0) + spec.area_of(2), n * n);
}

/// FNV-1a over a layout's grid: band counts, band extents, owner grid.
std::uint64_t layout_digest(const PartitionSpec& spec) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(spec.subplda);
  mix(spec.subpldb);
  for (std::int64_t v : spec.subph) mix(v);
  for (std::int64_t v : spec.subpw) mix(v);
  for (int owner : spec.subp) mix(owner);
  return h;
}

TEST(Nrrp, LayoutUnchangedFromParent) {
  // Digests pinned from the cell-scan assembly that band painting
  // replaced: the grid, its band extents and every band's owner must come
  // out identical for small, odd and cluster-scale p.
  struct Pin {
    int p;
    std::uint64_t uniform, skewed, rect_only, hierarchical;
  };
  const Pin pins[] = {
      {3, 0xf0aea091776a017cull, 0x95db31824aeb988bull,
       0x9f664cf3bb24a666ull, 0x95db31824aeb988bull},
      {7, 0x7af38340186da8ebull, 0xf4c55cde6931de5cull,
       0xf4c55cde6931de5cull, 0xa46bbb79284298a5ull},
      {64, 0xd61e83ce209f7665ull, 0x370c5f61411f9a0bull,
       0x370c5f61411f9a0bull, 0x0fdb765b4fd26301ull},
      {257, 0x9c69bc558c9c49f6ull, 0x16b7ee09023c5b25ull,
       0x16b7ee09023c5b25ull, 0x733090748ab2c16eull},
      {2048, 0xa2a0f0b789f4a8c5ull, 0x8b6d93571619b9b8ull,
       0x8b6d93571619b9b8ull, 0x2178c1ed2c582aa4ull},
  };
  const std::int64_t n = 30720;
  NrrpOptions rect_only;
  rect_only.allow_non_rectangular = false;
  for (const Pin& pin : pins) {
    const auto p = static_cast<std::size_t>(pin.p);
    // Speeds cycle 10, 9, 1: the 9:1 leaf pairs this creates take the
    // corner layout (flat at p = 3, inside the nodes at every p), so
    // non-rectangular zones are pinned too.
    std::vector<double> speeds;
    for (std::size_t i = 0; i < p; ++i) {
      speeds.push_back(i % 3 == 2 ? 1.0 : 10.0 - static_cast<double>(i % 3));
    }
    const auto uniform =
        partition_areas_cpm(n * n, std::vector<double>(p, 1.0));
    const auto skewed = partition_areas_cpm(n * n, speeds);
    // Group-major nodes of four ranks, the last one short when p is not a
    // multiple of four.
    std::vector<std::vector<std::int64_t>> by_node;
    for (std::size_t i = 0; i < p; ++i) {
      if (i % 4 == 0) by_node.emplace_back();
      by_node.back().push_back(skewed[i]);
    }
    EXPECT_EQ(layout_digest(nrrp_partition(n, uniform)), pin.uniform)
        << "uniform p=" << pin.p;
    EXPECT_EQ(layout_digest(nrrp_partition(n, skewed)), pin.skewed)
        << "skewed p=" << pin.p;
    EXPECT_EQ(layout_digest(nrrp_partition(n, skewed, rect_only)),
              pin.rect_only)
        << "rect-only p=" << pin.p;
    EXPECT_EQ(layout_digest(nrrp_hierarchical(n, by_node)), pin.hierarchical)
        << "hierarchical p=" << pin.p;
  }
}

TEST(Nrrp, RejectsBadInput) {
  EXPECT_THROW(nrrp_partition(0, {0}), std::invalid_argument);
  EXPECT_THROW(nrrp_partition(16, {}), std::invalid_argument);
  EXPECT_THROW(nrrp_partition(16, {100, 100}), std::invalid_argument);
  EXPECT_THROW(nrrp_partition(16, {-5, 261}), std::invalid_argument);
  EXPECT_THROW(nrrp_partition(16, {0, 0}), std::invalid_argument);
  // More processors than rows.
  std::vector<std::int64_t> many(8, 2);
  EXPECT_THROW(nrrp_partition(4, many), std::invalid_argument);
}

TEST(Hierarchical, EachGroupOwnsOneRectangleRegion) {
  // 2 groups of 3 processors: the union of each group's zones must be a
  // rectangle (level 1 is rectangular-only).
  const std::int64_t n = 240;
  std::vector<std::vector<std::int64_t>> by_group = {
      {9600, 19200, 9600}, {8640, 7680, 2880}};
  std::int64_t total = 0;
  for (const auto& g : by_group)
    for (auto a : g) total += a;
  ASSERT_EQ(total, n * n);
  const auto spec = nrrp_hierarchical(n, by_group);
  spec.validate(6);
  // Group zone = union of member zones; check its bounding box area equals
  // its total area (rectangular region).
  for (int g = 0; g < 2; ++g) {
    std::int64_t area = 0;
    Rect box{};
    bool first = true;
    for (int i = 0; i < 3; ++i) {
      const int rank = g * 3 + i;
      area += spec.area_of(rank);
      const Rect r = spec.covering(rank);
      if (r.rows == 0) continue;
      if (first) {
        box = r;
        first = false;
      } else {
        const std::int64_t r1 = std::min(box.row0, r.row0);
        const std::int64_t c1 = std::min(box.col0, r.col0);
        const std::int64_t r2 =
            std::max(box.row0 + box.rows, r.row0 + r.rows);
        const std::int64_t c2 =
            std::max(box.col0 + box.cols, r.col0 + r.cols);
        box = {r1, c1, r2 - r1, c2 - c1};
      }
    }
    EXPECT_EQ(area, box.rows * box.cols) << "group " << g;
  }
}

TEST(Hierarchical, ExactCoverAndAreaApproximation) {
  const std::int64_t n = 300;
  std::vector<std::vector<std::int64_t>> by_group(3);
  // 3 nodes x 3 devices with the paper's speed mix.
  const auto flat = partition_areas_cpm(
      n * n, {1.0, 2.0, 0.9, 1.0, 2.0, 0.9, 1.0, 2.0, 0.9});
  for (int g = 0; g < 3; ++g) {
    by_group[static_cast<std::size_t>(g)] = {
        flat[static_cast<std::size_t>(3 * g)],
        flat[static_cast<std::size_t>(3 * g + 1)],
        flat[static_cast<std::size_t>(3 * g + 2)]};
  }
  const auto spec = nrrp_hierarchical(n, by_group);
  spec.validate(9);
  std::int64_t sum = 0;
  for (int r = 0; r < 9; ++r) sum += spec.area_of(r);
  EXPECT_EQ(sum, n * n);
  for (int r = 0; r < 9; ++r) {
    EXPECT_NEAR(static_cast<double>(spec.area_of(r)),
                static_cast<double>(flat[static_cast<std::size_t>(r)]),
                6.0 * n);
  }
}

TEST(Hierarchical, SingleGroupEqualsFlatNrrp) {
  const std::int64_t n = 128;
  const auto areas = partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  const auto flat = nrrp_partition(n, areas);
  const auto hier = nrrp_hierarchical(n, {areas});
  EXPECT_EQ(flat.total_half_perimeter(), hier.total_half_perimeter());
}

TEST(Hierarchical, RejectsBadInput) {
  EXPECT_THROW(nrrp_hierarchical(16, {}), std::invalid_argument);
  EXPECT_THROW(nrrp_hierarchical(16, {{}}), std::invalid_argument);
  EXPECT_THROW(nrrp_hierarchical(16, {{100}, {100}}),
               std::invalid_argument);
  EXPECT_THROW(nrrp_hierarchical(16, {{-1}, {257}}), std::invalid_argument);
}

TEST(LowerBound, Formula) {
  EXPECT_DOUBLE_EQ(half_perimeter_lower_bound({100}), 20.0);
  EXPECT_DOUBLE_EQ(half_perimeter_lower_bound({100, 400}), 20.0 + 40.0);
  EXPECT_THROW(half_perimeter_lower_bound({-1}), std::invalid_argument);
}

TEST(Quality, PerfectSquareScoresAtBound) {
  // One processor on the whole square: HP = 2n, LB = 2n -> quality 1.
  const auto spec = nrrp_partition(32, {32 * 32});
  EXPECT_DOUBLE_EQ(nrrp_quality(spec), 1.0);
}

}  // namespace
}  // namespace summagen::partition

#include "src/partition/nrrp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace summagen::partition {
namespace {

struct Cell {
  int owner;
  std::int64_t r0, c0, h, w;
};

struct Item {
  std::int64_t area;
  int owner;
};

// Proportionally rescales the items' areas to sum exactly to `new_total`
// (largest-remainder apportionment); keeps descending order.
void rescale_exact(std::vector<Item>& items, std::int64_t new_total) {
  std::int64_t old_total = 0;
  for (const Item& it : items) old_total += it.area;
  if (old_total == new_total) return;
  std::vector<double> exact(items.size());
  std::vector<std::pair<double, std::size_t>> rem(items.size());
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    exact[i] = static_cast<double>(items[i].area) /
               static_cast<double>(old_total) *
               static_cast<double>(new_total);
    items[i].area = static_cast<std::int64_t>(std::floor(exact[i]));
    rem[i] = {exact[i] - std::floor(exact[i]), i};
    assigned += items[i].area;
  }
  std::sort(rem.begin(), rem.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < new_total; ++i, ++assigned) {
    ++items[rem[i % items.size()].second].area;
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.area > b.area; });
}

void dissect(std::int64_t r0, std::int64_t c0, std::int64_t h,
             std::int64_t w, std::vector<Item> items,
             const NrrpOptions& opts, std::vector<Cell>& out) {
  if (items.empty() || h <= 0 || w <= 0) return;
  if (items.size() == 1) {
    out.push_back({items[0].owner, r0, c0, h, w});
    return;
  }

  // Two-processor leaf: consider the non-rectangular corner layout. The
  // small zone becomes an s x s square in a corner; the large zone the
  // remaining L. Corner beats the best guillotine cut iff
  //   2*s < min(h, w)   (half-perimeters (h+w)+2s vs (h+w)+min(h,w)),
  // the Becker 3:1 criterion.
  if (items.size() == 2 && opts.allow_non_rectangular) {
    const Item small = items[1];
    const std::int64_t min_side = std::min(h, w);
    std::int64_t s = std::llround(std::sqrt(static_cast<double>(small.area)));
    s = std::clamp<std::int64_t>(s, 1, min_side - 1);
    if (min_side >= 2 && 2 * s < min_side && small.area > 0) {
      out.push_back({small.owner, r0, c0, s, s});
      out.push_back({items[0].owner, r0, c0 + s, s, w - s});
      out.push_back({items[0].owner, r0 + s, c0, h - s, w});
      return;
    }
  }

  // Generic step: split the (descending) areas into a prefix/suffix with
  // group shares closest to one half, cut perpendicular to the longer side.
  const std::int64_t total = h * w;
  std::int64_t best_k = 1;
  double best_dev = 2.0;
  std::int64_t prefix = 0;
  for (std::size_t k = 1; k < items.size(); ++k) {
    prefix += items[k - 1].area;
    const double dev = std::abs(static_cast<double>(prefix) /
                                    static_cast<double>(total) -
                                0.5);
    if (dev < best_dev) {
      best_dev = dev;
      best_k = static_cast<std::int64_t>(k);
    }
  }
  std::vector<Item> first(items.begin(), items.begin() + best_k);
  std::vector<Item> second(items.begin() + best_k, items.end());
  std::int64_t first_area = 0;
  for (const Item& it : first) first_area += it.area;
  const double share =
      static_cast<double>(first_area) / static_cast<double>(total);

  if (w >= h) {
    std::int64_t cut = std::llround(share * static_cast<double>(w));
    cut = std::clamp<std::int64_t>(cut, 1, w - 1);
    rescale_exact(first, h * cut);
    rescale_exact(second, h * (w - cut));
    dissect(r0, c0, h, cut, std::move(first), opts, out);
    dissect(r0, c0 + cut, h, w - cut, std::move(second), opts, out);
  } else {
    std::int64_t cut = std::llround(share * static_cast<double>(h));
    cut = std::clamp<std::int64_t>(cut, 1, h - 1);
    rescale_exact(first, cut * w);
    rescale_exact(second, (h - cut) * w);
    dissect(r0, c0, cut, w, std::move(first), opts, out);
    dissect(r0 + cut, c0, h - cut, w, std::move(second), opts, out);
  }
}

PartitionSpec assemble(std::int64_t n, const std::vector<Cell>& cells) {
  std::vector<std::int64_t> row_cuts = {0, n};
  std::vector<std::int64_t> col_cuts = {0, n};
  for (const Cell& cell : cells) {
    row_cuts.push_back(cell.r0);
    row_cuts.push_back(cell.r0 + cell.h);
    col_cuts.push_back(cell.c0);
    col_cuts.push_back(cell.c0 + cell.w);
  }
  std::sort(row_cuts.begin(), row_cuts.end());
  row_cuts.erase(std::unique(row_cuts.begin(), row_cuts.end()),
                 row_cuts.end());
  std::sort(col_cuts.begin(), col_cuts.end());
  col_cuts.erase(std::unique(col_cuts.begin(), col_cuts.end()),
                 col_cuts.end());

  PartitionSpec spec;
  spec.n = n;
  spec.subplda = static_cast<int>(row_cuts.size()) - 1;
  spec.subpldb = static_cast<int>(col_cuts.size()) - 1;
  for (int i = 0; i < spec.subplda; ++i) {
    spec.subph.push_back(row_cuts[static_cast<std::size_t>(i) + 1] -
                         row_cuts[static_cast<std::size_t>(i)]);
  }
  for (int j = 0; j < spec.subpldb; ++j) {
    spec.subpw.push_back(col_cuts[static_cast<std::size_t>(j) + 1] -
                         col_cuts[static_cast<std::size_t>(j)]);
  }
  spec.subp.assign(static_cast<std::size_t>(spec.subplda) *
                       static_cast<std::size_t>(spec.subpldb),
                   0);
  // The cells tile the square exactly and every cell edge is a cut, so
  // each cell covers a contiguous block of grid bands: paint that block.
  const auto band = [](const std::vector<std::int64_t>& cuts,
                       std::int64_t at) {
    return static_cast<std::size_t>(
        std::lower_bound(cuts.begin(), cuts.end(), at) - cuts.begin());
  };
  for (const Cell& cell : cells) {
    const std::size_t i1 = band(row_cuts, cell.r0 + cell.h);
    const std::size_t j0 = band(col_cuts, cell.c0);
    const std::size_t j1 = band(col_cuts, cell.c0 + cell.w);
    for (std::size_t i = band(row_cuts, cell.r0); i < i1; ++i) {
      std::fill_n(spec.subp.begin() +
                      static_cast<std::ptrdiff_t>(
                          i * static_cast<std::size_t>(spec.subpldb) + j0),
                  j1 - j0, cell.owner);
    }
  }
  return spec;
}

}  // namespace

PartitionSpec nrrp_partition(std::int64_t n,
                             const std::vector<std::int64_t>& areas,
                             const NrrpOptions& opts) {
  if (n <= 0) throw std::invalid_argument("nrrp_partition: n <= 0");
  if (areas.empty()) throw std::invalid_argument("nrrp_partition: no areas");
  std::int64_t total = 0;
  std::vector<Item> items;
  for (std::size_t i = 0; i < areas.size(); ++i) {
    if (areas[i] < 0) {
      throw std::invalid_argument("nrrp_partition: negative area");
    }
    total += areas[i];
    if (areas[i] > 0) {
      items.push_back({areas[i], static_cast<int>(i)});
    }
  }
  if (total != n * n) {
    throw std::invalid_argument("nrrp_partition: areas must sum to n*n");
  }
  if (items.empty()) {
    throw std::invalid_argument("nrrp_partition: all areas are zero");
  }
  if (static_cast<std::int64_t>(items.size()) > n) {
    throw std::invalid_argument(
        "nrrp_partition: more non-empty processors than matrix rows");
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.area > b.area; });

  std::vector<Cell> cells;
  dissect(0, 0, n, n, std::move(items), opts, cells);
  PartitionSpec spec = assemble(n, cells);
  spec.validate(static_cast<int>(areas.size()));
  return spec;
}

PartitionSpec nrrp_hierarchical(
    std::int64_t n,
    const std::vector<std::vector<std::int64_t>>& areas_by_group,
    const NrrpOptions& opts) {
  if (n <= 0) throw std::invalid_argument("nrrp_hierarchical: n <= 0");
  if (areas_by_group.empty()) {
    throw std::invalid_argument("nrrp_hierarchical: no groups");
  }
  // Group totals; group ids double as level-1 owners.
  std::vector<Item> groups;
  std::int64_t total = 0;
  for (std::size_t g = 0; g < areas_by_group.size(); ++g) {
    if (areas_by_group[g].empty()) {
      throw std::invalid_argument("nrrp_hierarchical: empty group");
    }
    std::int64_t sum = 0;
    for (std::int64_t a : areas_by_group[g]) {
      if (a < 0) {
        throw std::invalid_argument("nrrp_hierarchical: negative area");
      }
      sum += a;
    }
    total += sum;
    if (sum > 0) groups.push_back({sum, static_cast<int>(g)});
  }
  if (total != n * n) {
    throw std::invalid_argument("nrrp_hierarchical: areas must sum to n*n");
  }
  if (groups.empty()) {
    throw std::invalid_argument("nrrp_hierarchical: all areas zero");
  }
  std::sort(groups.begin(), groups.end(),
            [](const Item& a, const Item& b) { return a.area > b.area; });

  // Level 1: rectangular cuts only, so each node owns one rectangle and
  // all cross-node data dependencies stay between whole node blocks.
  NrrpOptions rect_only = opts;
  rect_only.allow_non_rectangular = false;
  std::vector<Cell> node_cells;
  dissect(0, 0, n, n, groups, rect_only, node_cells);

  // First global rank of each group (group-major rank layout).
  std::vector<int> rank_base(areas_by_group.size() + 1, 0);
  for (std::size_t g = 0; g < areas_by_group.size(); ++g) {
    rank_base[g + 1] =
        rank_base[g] + static_cast<int>(areas_by_group[g].size());
  }

  // Level 2: full scheme (corner leaves allowed) inside each node block.
  std::vector<Cell> cells;
  for (const Cell& node_cell : node_cells) {
    const auto g = static_cast<std::size_t>(node_cell.owner);
    std::vector<Item> items;
    for (std::size_t i = 0; i < areas_by_group[g].size(); ++i) {
      if (areas_by_group[g][i] > 0) {
        items.push_back({areas_by_group[g][i],
                         rank_base[g] + static_cast<int>(i)});
      }
    }
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.area > b.area; });
    rescale_exact(items, node_cell.h * node_cell.w);
    dissect(node_cell.r0, node_cell.c0, node_cell.h, node_cell.w,
            std::move(items), opts, cells);
  }

  PartitionSpec spec = assemble(n, cells);
  spec.validate(rank_base.back());
  return spec;
}

double half_perimeter_lower_bound(const std::vector<std::int64_t>& areas) {
  double lb = 0.0;
  for (std::int64_t a : areas) {
    if (a < 0) {
      throw std::invalid_argument("half_perimeter_lower_bound: a < 0");
    }
    lb += 2.0 * std::sqrt(static_cast<double>(a));
  }
  return lb;
}

double nrrp_quality(const PartitionSpec& spec) {
  std::vector<std::int64_t> areas;
  for (int r = 0; r < spec.nprocs(); ++r) areas.push_back(spec.area_of(r));
  const double lb = half_perimeter_lower_bound(areas);
  if (lb == 0.0) return 1.0;
  return static_cast<double>(spec.total_half_perimeter()) / lb;
}

}  // namespace summagen::partition

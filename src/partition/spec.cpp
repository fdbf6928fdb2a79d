#include "src/partition/spec.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace summagen::partition {

int PartitionSpec::nprocs() const {
  int top = -1;
  for (int r : subp) top = std::max(top, r);
  return top + 1;
}

void PartitionSpec::validate(int expected_procs) const {
  if (n <= 0) throw std::invalid_argument("PartitionSpec: n <= 0");
  if (subplda <= 0 || subpldb <= 0) {
    throw std::invalid_argument("PartitionSpec: empty sub-partition grid");
  }
  if (subp.size() != static_cast<std::size_t>(subplda) *
                         static_cast<std::size_t>(subpldb)) {
    throw std::invalid_argument("PartitionSpec: subp size != subplda*subpldb");
  }
  if (subph.size() != static_cast<std::size_t>(subplda)) {
    throw std::invalid_argument("PartitionSpec: subph size != subplda");
  }
  if (subpw.size() != static_cast<std::size_t>(subpldb)) {
    throw std::invalid_argument("PartitionSpec: subpw size != subpldb");
  }
  std::int64_t hsum = 0;
  for (std::int64_t h : subph) {
    if (h < 0) throw std::invalid_argument("PartitionSpec: negative height");
    hsum += h;
  }
  if (hsum != n) {
    throw std::invalid_argument("PartitionSpec: heights sum to " +
                                std::to_string(hsum) + ", expected " +
                                std::to_string(n));
  }
  std::int64_t wsum = 0;
  for (std::int64_t w : subpw) {
    if (w < 0) throw std::invalid_argument("PartitionSpec: negative width");
    wsum += w;
  }
  if (wsum != n) {
    throw std::invalid_argument("PartitionSpec: widths sum to " +
                                std::to_string(wsum) + ", expected " +
                                std::to_string(n));
  }
  for (int r : subp) {
    if (r < 0) throw std::invalid_argument("PartitionSpec: negative owner");
    if (expected_procs >= 0 && r >= expected_procs) {
      throw std::invalid_argument("PartitionSpec: owner " + std::to_string(r) +
                                  " >= nprocs " +
                                  std::to_string(expected_procs));
    }
  }
}

std::vector<std::int64_t> PartitionSpec::row_offsets() const {
  std::vector<std::int64_t> off(static_cast<std::size_t>(subplda) + 1, 0);
  for (int i = 0; i < subplda; ++i) {
    off[static_cast<std::size_t>(i) + 1] =
        off[static_cast<std::size_t>(i)] + subph[static_cast<std::size_t>(i)];
  }
  return off;
}

std::vector<std::int64_t> PartitionSpec::col_offsets() const {
  std::vector<std::int64_t> off(static_cast<std::size_t>(subpldb) + 1, 0);
  for (int j = 0; j < subpldb; ++j) {
    off[static_cast<std::size_t>(j) + 1] =
        off[static_cast<std::size_t>(j)] + subpw[static_cast<std::size_t>(j)];
  }
  return off;
}

bool PartitionSpec::row_contains(int rank, int bi) const {
  for (int bj = 0; bj < subpldb; ++bj) {
    if (owner(bi, bj) == rank) return true;
  }
  return false;
}

bool PartitionSpec::col_contains(int rank, int bj) const {
  for (int bi = 0; bi < subplda; ++bi) {
    if (owner(bi, bj) == rank) return true;
  }
  return false;
}

std::vector<int> PartitionSpec::ranks_in_row(int bi) const {
  std::vector<int> out;
  for (int bj = 0; bj < subpldb; ++bj) out.push_back(owner(bi, bj));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int> PartitionSpec::ranks_in_col(int bj) const {
  std::vector<int> out;
  for (int bi = 0; bi < subplda; ++bi) out.push_back(owner(bi, bj));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::int64_t PartitionSpec::area_of(int rank) const {
  std::int64_t area = 0;
  for (int bi = 0; bi < subplda; ++bi) {
    for (int bj = 0; bj < subpldb; ++bj) {
      if (owner(bi, bj) == rank) {
        area += subph[static_cast<std::size_t>(bi)] *
                subpw[static_cast<std::size_t>(bj)];
      }
    }
  }
  return area;
}

Rect PartitionSpec::covering(int rank) const {
  const auto roff = row_offsets();
  const auto coff = col_offsets();
  std::int64_t r0 = -1, r1 = -1, c0 = -1, c1 = -1;
  for (int bi = 0; bi < subplda; ++bi) {
    if (subph[static_cast<std::size_t>(bi)] == 0) continue;
    for (int bj = 0; bj < subpldb; ++bj) {
      if (subpw[static_cast<std::size_t>(bj)] == 0) continue;
      if (owner(bi, bj) != rank) continue;
      const std::int64_t top = roff[static_cast<std::size_t>(bi)];
      const std::int64_t bot = roff[static_cast<std::size_t>(bi) + 1];
      const std::int64_t lef = coff[static_cast<std::size_t>(bj)];
      const std::int64_t rig = coff[static_cast<std::size_t>(bj) + 1];
      if (r0 < 0 || top < r0) r0 = top;
      if (bot > r1) r1 = bot;
      if (c0 < 0 || lef < c0) c0 = lef;
      if (rig > c1) c1 = rig;
    }
  }
  if (r0 < 0) return {};
  return {r0, c0, r1 - r0, c1 - c0};
}

std::int64_t PartitionSpec::half_perimeter(int rank) const {
  const Rect r = covering(rank);
  return r.rows + r.cols;
}

std::int64_t PartitionSpec::total_half_perimeter() const {
  std::int64_t total = 0;
  for (int r = 0; r < nprocs(); ++r) total += half_perimeter(r);
  return total;
}

bool PartitionSpec::is_rectangular(int rank) const {
  const Rect r = covering(rank);
  return area_of(rank) == r.rows * r.cols;
}

std::string PartitionSpec::render(std::int64_t cell) const {
  if (cell <= 0) throw std::invalid_argument("render: cell <= 0");
  const auto roff = row_offsets();
  const auto coff = col_offsets();
  std::string out;
  for (std::int64_t i = 0; i < n; i += cell) {
    for (std::int64_t j = 0; j < n; j += cell) {
      // Find the sub-partition containing element (i, j).
      const auto bi = static_cast<int>(
          std::upper_bound(roff.begin(), roff.end(), i) - roff.begin() - 1);
      const auto bj = static_cast<int>(
          std::upper_bound(coff.begin(), coff.end(), j) - coff.begin() - 1);
      const int r = owner(bi, bj);
      out += (r < 10) ? static_cast<char>('0' + r)
                      : static_cast<char>('a' + (r - 10));
    }
    out += '\n';
  }
  return out;
}

}  // namespace summagen::partition

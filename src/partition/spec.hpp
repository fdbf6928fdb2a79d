// PartitionSpec: the paper's {subplda, subpldb, subp, subph, subpw} arrays.
//
// SummaGen (Section IV) describes the layout of partitions in the square
// matrices by a grid of *sub-partitions*: `subph` are the heights of the
// sub-partition rows, `subpw` the widths of the sub-partition columns, and
// `subp[bi * subpldb + bj]` the rank owning sub-partition (bi, bj). A
// processor's *partition* (its zone Z) is the union of the sub-partitions it
// owns — possibly non-rectangular, as in the square-corner shape.
//
// This header adds the geometry the theory chapters need: zone areas A(Z),
// covering rectangles R(Z), and half-perimeters c(Z) = h(Z) + w(Z), whose
// sum is the paper's communication-volume objective (Section II).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace summagen::partition {

/// Axis-aligned rectangle in matrix coordinates (elements).
struct Rect {
  std::int64_t row0 = 0;
  std::int64_t col0 = 0;
  std::int64_t rows = 0;
  std::int64_t cols = 0;

  bool operator==(const Rect&) const = default;
};

/// The partition layout of the three matrices (A, B and C share it).
struct PartitionSpec {
  std::int64_t n = 0;  ///< matrix dimension N (elements)
  int subplda = 0;     ///< number of sub-partition rows
  int subpldb = 0;     ///< number of sub-partition columns
  std::vector<int> subp;            ///< owners, row-major, subplda*subpldb
  std::vector<std::int64_t> subph;  ///< row heights, sum == n (may be 0)
  std::vector<std::int64_t> subpw;  ///< column widths, sum == n (may be 0)

  /// Owner rank of sub-partition (bi, bj).
  int owner(int bi, int bj) const {
    return subp[static_cast<std::size_t>(bi) *
                    static_cast<std::size_t>(subpldb) +
                static_cast<std::size_t>(bj)];
  }

  /// 1 + the largest rank referenced.
  int nprocs() const;

  /// Throws std::invalid_argument describing the first violated invariant:
  /// array sizes, non-negative extents, extents summing to n, owners in
  /// [0, nprocs). `expected_procs < 0` skips the owner-range check.
  void validate(int expected_procs = -1) const;

  /// Element offset of sub-partition row bi / column bj.
  std::vector<std::int64_t> row_offsets() const;  ///< size subplda + 1
  std::vector<std::int64_t> col_offsets() const;  ///< size subpldb + 1

  /// Whether `rank` owns at least one sub-partition in row bi / column bj
  /// (the `row_contains_rank` / `column_contains_rank` of Figures 2-3).
  bool row_contains(int rank, int bi) const;
  bool col_contains(int rank, int bj) const;

  /// Distinct owners appearing in a sub-partition row/column, ascending.
  std::vector<int> ranks_in_row(int bi) const;
  std::vector<int> ranks_in_col(int bj) const;

  /// Zone area A(Z_rank) in elements.
  std::int64_t area_of(int rank) const;

  /// Covering rectangle R(Z_rank); all-zero Rect for an empty zone.
  Rect covering(int rank) const;

  /// Half-perimeter c(Z_rank) = h(Z) + w(Z); 0 for an empty zone.
  std::int64_t half_perimeter(int rank) const;

  /// Sum of half-perimeters over all ranks — the paper's T_comm objective
  /// (total communication volume, Section II, Eq. 2/4).
  std::int64_t total_half_perimeter() const;

  /// True if Z_rank exactly fills its covering rectangle.
  bool is_rectangular(int rank) const;

  /// ASCII rendering with one character per `cell` x `cell` elements — the
  /// pictures of Figure 1 (digits = owner ranks).
  std::string render(std::int64_t cell = 1) const;
};

}  // namespace summagen::partition

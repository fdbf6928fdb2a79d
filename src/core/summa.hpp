// Classic SUMMA (van de Geijn & Watts) — the rectangular, homogeneous-grid
// algorithm SummaGen generalises (paper Section III-D/E: SUMMA is
// communication-optimal for square PMM on a 2D grid; Elemental builds on
// it). Implemented here as a baseline and cross-check:
//
//  * processors form a pr x pc grid (row-major rank order), each owning a
//    contiguous block of A, B and C;
//  * computation proceeds in panels of width b along the k dimension: the
//    owner column broadcasts its A panel along each processor row, the
//    owner row broadcasts its B panel down each processor column, then
//    every processor performs a rank-b update of its C block. summa_rank
//    runs this loop in program order: each step's broadcasts overwrite
//    the panel workspaces the previous update read, so there is no other
//    order to schedule;
//  * like SummaGen, it runs on the numeric plane (real arithmetic,
//    verifiable) or the modeled plane (virtual time only).
//
// Unlike SummaGen's one-shot whole-sub-partition broadcasts, SUMMA's
// panelled schedule bounds the working buffers to O(b * n / p) — the
// classic memory/latency trade-off the panel-width bench explores.
#pragma once

#include <cstdint>

#include "src/device/device.hpp"
#include "src/mpi/mpi.hpp"
#include "src/util/matrix.hpp"

namespace summagen::core {

/// Grid and panel configuration of a SUMMA run.
struct SummaConfig {
  int pr = 2;               ///< processor grid rows
  int pc = 2;               ///< processor grid columns
  std::int64_t panel = 256; ///< k-panel width b
};

/// Block extents of rank (i, j) in an n x n matrix over a pr x pc grid
/// (balanced split: the first n % pr rows of the grid get one extra row).
struct SummaBlock {
  std::int64_t row0 = 0, col0 = 0, rows = 0, cols = 0;
};
SummaBlock summa_block(std::int64_t n, const SummaConfig& config, int rank);

/// Numeric per-rank storage: this rank's A/B blocks in, C block out.
class SummaLocalData {
 public:
  SummaLocalData(std::int64_t n, const SummaConfig& config, int rank,
                 const util::Matrix& a, const util::Matrix& b);

  const util::Matrix& a_block() const { return a_; }
  const util::Matrix& b_block() const { return b_; }
  util::Matrix& c_block() { return c_; }
  const SummaBlock& extent() const { return extent_; }

  /// Writes this rank's C block into the global matrix.
  void gather_c(util::Matrix& c_global) const;

 private:
  SummaBlock extent_;
  util::Matrix a_, b_, c_;
};

/// Per-rank accounting of one SUMMA execution.
struct SummaReport {
  int steps = 0;                 ///< number of k panels
  int bcasts = 0;
  std::int64_t bcast_bytes = 0;
  double mpi_time_s = 0.0;
  std::int64_t flops = 0;
};

/// Executes SUMMA on the calling rank. `world` must have exactly
/// config.pr * config.pc ranks; `data` selects the plane (nullptr =
/// modeled). Throws std::invalid_argument on grid/world mismatches.
SummaReport summa_rank(sgmpi::Comm& world, std::int64_t n,
                       const SummaConfig& config,
                       const device::AbstractProcessor& ap,
                       SummaLocalData* data, bool contended = true);

}  // namespace summagen::core

// 2.5D matrix multiplication (Solomonik & Demmel, Euro-Par 2011) — the
// communication-optimal algorithm the paper's related work (Section III-D)
// holds up as the homogeneous frontier.
//
// Processors form a q x q x c grid: c replicated "layers" of a q x q SUMMA
// grid. Layer 0 owns the block-distributed A, B and the final C.
//
//   1. Replication: each (i, j) block of A and B is broadcast from layer 0
//      down the c-deep layer communicator.
//   2. Each layer runs the SUMMA panel loop over its 1/c share of the k
//      dimension (layer l handles k in [l*n/c, (l+1)*n/c)) — the classic
//      bandwidth-for-memory trade: per-processor broadcast traffic drops
//      by ~c because each layer broadcasts only its own panels.
//   3. The partial C blocks are sum-reduced across the layer communicator.
//
// summa25d_rank runs these three steps in program order on the calling
// rank. c = 1 skips steps 1 and 3 and is SUMMA's panel loop. Like the
// other algorithms here it runs on the numeric plane (real arithmetic,
// verified) or the modeled plane (virtual time only).
#pragma once

#include <cstdint>

#include "src/core/summa.hpp"
#include "src/device/device.hpp"
#include "src/mpi/mpi.hpp"
#include "src/util/matrix.hpp"

namespace summagen::core {

/// Grid configuration: q*q*c ranks, rank = (l*q + i)*q + j.
struct Summa25dConfig {
  int q = 2;                ///< square grid edge per layer
  int c = 1;                ///< replication factor (layers)
  std::int64_t panel = 256; ///< k-panel width within a layer's share
};

/// Numeric per-rank storage. Layer 0 ranks hold real A/B blocks; other
/// layers allocate receive buffers. Every rank accumulates a partial C.
class Summa25dLocalData {
 public:
  Summa25dLocalData(std::int64_t n, const Summa25dConfig& config, int rank,
                    const util::Matrix& a, const util::Matrix& b);

  util::Matrix& a_block() { return a_; }
  util::Matrix& b_block() { return b_; }
  util::Matrix& c_block() { return c_; }
  const SummaBlock& extent() const { return extent_; }
  bool on_layer_zero() const { return layer_zero_; }

  /// Writes this rank's C block into the global matrix (layer 0 only;
  /// throws otherwise — other layers hold partial sums pre-reduce and the
  /// reduced copy post-reduce, but layer 0 is the canonical owner).
  void gather_c(util::Matrix& c_global) const;

 private:
  bool layer_zero_ = false;
  SummaBlock extent_;
  util::Matrix a_, b_, c_;
};

struct Summa25dReport {
  int steps = 0;
  int bcasts = 0;
  std::int64_t bcast_bytes = 0;       ///< SUMMA panel broadcasts
  std::int64_t replication_bytes = 0; ///< step-1 block broadcasts
  std::int64_t reduce_bytes = 0;      ///< step-3 C reduction
  double mpi_time_s = 0.0;
  std::int64_t flops = 0;
};

/// Executes 2.5D MM on the calling rank. `world` must have exactly
/// q*q*c ranks. `data` selects the plane (nullptr = modeled).
Summa25dReport summa25d_rank(sgmpi::Comm& world, std::int64_t n,
                             const Summa25dConfig& config,
                             const device::AbstractProcessor& ap,
                             Summa25dLocalData* data, bool contended = true);

}  // namespace summagen::core

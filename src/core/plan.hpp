// Explicit execution plan for one SummaGen run.
//
// Historically `summagen_rank` interleaved schedule derivation and
// execution inside three monolithic stage functions. The plan splits the
// two: `build_plan` derives, once per run and identically on every rank,
// the complete list of communication operations (panel broadcasts of A and
// B sub-partitions over their row/column subgroups), purely-local copies
// (rows/columns with a single owner), and local DGEMMs. The task graph
// built from it (src/core/taskgraph/) is then executed by a scheduler —
// `kEager` in the paper's strict phase order, or `kTaskGraph` with
// non-blocking broadcasts overlapping DGEMM execution.
//
// Ordering contract: `comm_ops` is in the eager global order (all A
// operations by sub-partition row, then all B operations by column). Every
// rank derives the same list, so the sub-sequence of operations on any one
// subgroup communicator is identical across its members — the MPI
// collective-ordering rule. Both schedulers issue operations in exactly
// this order; the dataflow one merely separates posting from completion.
//
// Overlap granularity: a DGEMM on sub-partition (bi, bj) reads the full
// A row line bi and B column line bj along the shared dimension k = n.
// Waiting for both whole lines would serialise the last broadcast against
// the whole multiplication, so each GemmOp carries `chunks`: k-intervals
// whose covering payloads (the A sub-partition of the column block and the
// B panels of the row block intersecting the interval) arrive by a known
// prefix of `comm_ops`. Executing the chunks in ascending-k order as
// C += A[:, k0:k1) * B[k0:k1, :] accumulations is numerically identical to
// the single whole-k DGEMM (every kernel updates each C element in
// ascending-k order either way), and lets the broadcasts beyond `dep` ride
// the communication lane under the chunk.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/summagen.hpp"
#include "src/partition/spec.hpp"

namespace summagen::core {

/// One panel broadcast over a row/column subgroup.
struct CommOp {
  bool is_a = true;  ///< A row broadcast (Fig. 2) or B column (Fig. 3)
  int bi = 0;        ///< sub-partition row of the payload
  int bj = 0;        ///< sub-partition column of the payload
  std::int64_t p0 = 0;    ///< first payload row of this panel
  std::int64_t rows = 0;  ///< panel rows (<= sub-partition height)
  std::int64_t width = 0; ///< elements per payload row
  std::int64_t bytes = 0; ///< rows * width * sizeof(double)
  std::vector<int> owners;  ///< subgroup members (world ranks, ascending)
  int root = 0;             ///< index of the owner within `owners`
  int owner = 0;            ///< world rank owning the sub-partition
};

/// Local copy of an owned sub-partition into WA/WB (single-owner row or
/// column: no communication, zero virtual cost).
struct CopyOp {
  bool is_a = true;
  int bi = 0;
  int bj = 0;
};

/// One k-interval of a GemmOp, runnable as soon as a prefix of `comm_ops`
/// has completed. Chunks of one GemmOp are contiguous, cover [0, n), and
/// have strictly increasing `dep` (maximal equal-dep intervals are merged).
struct GemmChunk {
  std::int64_t k0 = 0;  ///< first shared-dimension index
  std::int64_t k1 = 0;  ///< one past the last shared-dimension index
  /// Index into `comm_ops` of the last operation this chunk reads from;
  /// -1 when every input is locally owned (copies).
  int dep = -1;
};

/// One local DGEMM on an owned sub-partition.
struct GemmOp {
  int bi = 0;
  int bj = 0;
  int owner = 0;  ///< executing rank
  std::vector<GemmChunk> chunks;  ///< k-decomposition for overlap
};

struct ExecutionPlan {
  std::vector<CommOp> comm_ops;  ///< eager global order (A rows, then B cols)
  std::vector<CopyOp> copy_ops;  ///< order-free (no virtual cost)
  std::vector<GemmOp> gemm_ops;  ///< row-major (bi, bj) — the eager order
};

/// Derives the plan for `spec` under `options` (panel splitting applies).
/// Deterministic: every rank computes the same plan.
ExecutionPlan build_plan(const partition::PartitionSpec& spec,
                         const SummaGenOptions& options);

}  // namespace summagen::core

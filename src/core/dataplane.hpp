// Per-rank local matrix storage for SummaGen.
//
// SummaGen assumes the matrices are pre-distributed: each rank stores
// exactly the sub-partitions of A and B it owns, and produces the C
// sub-partitions it owns. LocalData is that store, in two flavours
// (DESIGN.md §5.2):
//   * numeric - A/B sub-partitions are strided views in place over the
//     global operands (zero copies, zero allocation); the blocks a rank
//     receives — those another rank owns in an A row or a B column the
//     rank appears in — land in receive slots, its slices of the run's one
//     workspace lease, owned by RunStores. A DGEMM reads each block where
//     it lives: an owned block in place, a received one in its slot. The
//     local C is either a pooled private buffer over the covering
//     rectangle or — when the caller passes the global C — a window viewed
//     directly into it, in which case gather_c is a no-op because every
//     owned cell was written in place;
//   * modeled - no storage at all; the algorithm still runs every loop and
//     communication with null payloads, so figure benches can execute the
//     paper's N = 25600..38416 without 10+ GB of allocation.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/partition/spec.hpp"
#include "src/util/buffer_pool.hpp"
#include "src/util/matrix.hpp"
#include "src/util/matrix_view.hpp"

namespace summagen::core {

/// Local matrices of one rank under a given PartitionSpec.
///
/// Numeric instances view the caller's global A/B (and optionally C)
/// in place, so those matrices must outlive the LocalData. They are built
/// only by RunStores, which also hands each one its receive slots.
class LocalData {
 public:
  /// Modeled plane: no buffers.
  LocalData() = default;

  bool numeric() const { return numeric_; }
  int rank() const { return rank_; }

  /// Owned sub-partition of A / B at grid cell (bi, bj), viewed in place
  /// inside the global operand; throws if not owned or modeled-only.
  util::ConstMatrixView a_part(int bi, int bj) const;
  util::ConstMatrixView b_part(int bi, int bj) const;
  bool owns(int bi, int bj) const;

  /// A(bi, bk) / B(bk, bj) where this rank's DGEMMs read it: the owned
  /// block in place inside the global operand (a_part / b_part), else its
  /// receive slot. Throws std::out_of_range for a block the rank neither
  /// owns nor receives.
  util::ConstMatrixView a_block(int bi, int bk) const;
  util::ConstMatrixView b_block(int bk, int bj) const;

  /// Receive slot of A(bi, bk) / B(bk, bj), where its broadcast lands:
  /// h x w with ld w, a slice of the RunStores lease, empty once that is
  /// released. Throws std::out_of_range for an owned block (it has no
  /// slot: the owner reads it in place) and for a block the rank does not
  /// receive.
  util::MatrixView a_slot(int bi, int bk) const;
  util::MatrixView b_slot(int bk, int bj) const;

  /// True once RunStores::release_workspace has emptied the slots.
  bool workspace_released() const { return released_; }

  /// Local C spanning the covering rectangle (numeric only).
  util::MatrixView c() { return c_view_; }
  util::ConstMatrixView c() const { return c_view_; }
  const partition::Rect& c_rect() const { return c_rect_; }

  /// True when the local C writes land directly in the caller's global C.
  bool c_in_place() const { return c_in_place_; }

  /// Writes this rank's owned C sub-partitions into the global matrix.
  /// Unowned cells inside the covering rectangle are left untouched. A
  /// no-op for in-place C (the cells are already there).
  void gather_c(util::Matrix& c_global) const;

 private:
  friend class RunStores;
  using Slots = std::map<std::pair<int, int>, util::MatrixView>;

  /// Numeric plane: records `rank`'s owned sub-partitions of `a` and `b`
  /// as in-place views and its local C (see RunStores).
  LocalData(const partition::PartitionSpec& spec, int rank,
            const util::Matrix& a, const util::Matrix& b,
            util::Matrix* c_global);

  const partition::Rect& cell(const char* which, int bi, int bj) const;
  util::MatrixView slot(const Slots& slots, const char* which, int bi,
                        int bj) const;

  bool numeric_ = false;
  int rank_ = -1;
  const util::Matrix* a_ = nullptr;
  const util::Matrix* b_ = nullptr;
  std::map<std::pair<int, int>, partition::Rect> cells_;
  Slots a_slots_;  ///< by (bi, bk): received A blocks
  Slots b_slots_;  ///< by (bk, bj): received B blocks
  bool released_ = false;
  util::PooledBuffer c_store_;
  util::MatrixView c_view_;
  partition::Rect c_rect_;
  bool c_in_place_ = false;
};

/// Every rank's numeric LocalData for one execution of a spec — a whole
/// run, or one phase of a fault-tolerant run — plus the one pooled
/// workspace lease their receive slots are sliced from.
///
/// A rank gets one slot for each block another rank owns in an A row or
/// a B column the rank appears in, so each line's payload is stored once
/// per receiver — (owners - 1) times — and a single-owner line not at all.
/// All ranks of a run share one process, so the slots are slices of a
/// single lease (each h x w with ld w, starting on a 64-byte boundary, in
/// a fixed order) rather than leases of their own: the pool then keeps one
/// block per run, not a high-water mark in every size class some slot ever
/// landed in.
class RunStores {
 public:
  /// No stores: the modeled plane, which never leases.
  RunStores() = default;

  /// Stores for world ranks 0 .. nranks-1 under `spec` (validated for
  /// `nranks` processors) over the n x n globals `a` and `b`; a rank that
  /// owns nothing gets an empty store and no slot. When `c_global` is
  /// null each rank's C is a pooled, zero-filled covering-rectangle buffer;
  /// when non-null it is a window into `c_global` — owned C cells are
  /// disjoint across ranks, so every rank may write its cells directly and
  /// gather_c becomes a no-op. Fault-tolerant phases must use private C: a
  /// re-executed phase accumulates from zero, which an in-place global C
  /// cannot provide. Throws std::invalid_argument on a spec invalid for
  /// `nranks` and on wrong global shapes.
  RunStores(const partition::PartitionSpec& spec, int nranks,
            const util::Matrix& a, const util::Matrix& b,
            util::Matrix* c_global = nullptr);

  /// `rank`'s store; null on the modeled plane (no stores) and for a rank
  /// outside 0 .. nranks-1.
  LocalData* at(int rank) const;

  /// Writes every rank's owned C cells into `c_global`.
  void gather_c(util::Matrix& c_global) const;

  /// Returns the workspace lease to the pool and empties every rank's
  /// receive slots; the C stores stay until the RunStores goes.
  void release_workspace();

 private:
  util::PooledBuffer workspace_;
  std::vector<std::unique_ptr<LocalData>> locals_;  ///< by rank
};

}  // namespace summagen::core

// Schedules of the task graph (src/core/taskgraph/taskgraph.hpp).
//
// One executor, two schedules — both legal topological orders of the same
// graph, so they move the same bytes and accumulate every C element in the
// same ascending-k order (bit-identity per SIMD tier):
//
//  * Scheduler::kEager: ascending node id — the construction order. Comm
//    nodes run blocking; each consecutive kGemm chunk chain of one op is
//    fused into a single whole-kernel call (run_fused), reproducing the
//    historical eager executor's call sequence and virtual timing exactly.
//  * Scheduler::kTaskGraph: ready-set driven. Comm nodes are posted ahead
//    up to `window` and completed in ascending id (so subgroup collective
//    order is preserved); whenever any local node has all dependencies
//    satisfied, the lowest-id ready node runs. The rank only blocks in a
//    comm completion when nothing is computable — compute never waits on a
//    broadcast another chunk could hide.
//
// Determinism: both schedules are functions of the graph structure alone
// (ready-set ties break by lowest id, completions are in-order), so a
// run's schedule — and with it the virtual timeline — is exactly
// reproducible.
//
// Rank projection: the executor runs one rank and walks only that rank's
// slice of the graph, TaskGraph::rank_nodes(rank): its local nodes
// (owner == rank) and the comm nodes it participates in (rank in owners),
// in ascending id — the paper's row_contains_rank / column_contains_rank.
// Every per-rank structure (the comm pipeline, pending-predecessor
// counts) is sized by that slice, the counts addressed by a node's
// position in it, so a rank of a p-rank graph costs O(its own nodes), not
// O(graph). Dependencies on nodes outside the slice (another rank's local
// work) are treated as satisfied — cross-rank ordering is what the
// collectives themselves enforce.
//
// Node bodies and the shared pool: per-rank virtual time is a serial
// resource, so the executor runs node bodies on the rank's fiber; the
// compute fan-out happens *inside* GEMM nodes, whose kernels run on the
// process-wide sgpool (src/pool) like every other compute path. The
// schedule-level concurrency lives on the virtual communication lane:
// posted comm nodes ride it until completed.
#pragma once

#include <functional>

#include "src/core/summagen.hpp"
#include "src/core/taskgraph/taskgraph.hpp"
#include "src/mpi/mpi.hpp"

namespace summagen::core::taskgraph {

/// Node execution callbacks, all five required (run_graph throws
/// std::logic_error on a missing one):
///  * run_local — a local node (kCopy; a kGemm chunk under kTaskGraph).
///  * run_comm — kEager: a comm node, blocking.
///  * run_fused — kEager: a full consecutive chain of kGemm chunk nodes of
///    one op as a single whole-kernel call (the historical eager charge).
///    Called with the first chunk node and the chain length; the executor
///    then skips the chain.
///  * post_comm/complete_comm — kTaskGraph: the non-blocking split of a
///    comm node. Up to `window` nodes are posted ahead and completed in
///    posting order; posting ahead of local work is legal because no comm
///    node has a local predecessor (TaskGraph::validate).
struct ExecHooks {
  std::function<void(const TaskNode&)> run_local;
  std::function<void(const TaskNode&)> run_comm;
  std::function<void(const TaskNode&, int)> run_fused;
  std::function<sgmpi::Request(const TaskNode&)> post_comm;
  std::function<void(const TaskNode&, sgmpi::Request&)> complete_comm;
};

/// Executes `graph` for `rank` under `schedule`. `window` bounds the
/// posted-but-uncompleted comm nodes per rank (<= 0 = unbounded; ignored
/// by kEager, which is fully blocking). Dropped nodes are skipped.
/// Throws std::logic_error on an unexecutable graph (cyclic wait) and
/// propagates whatever the hooks throw (fault injection unwinds through
/// here with requests in flight; sgmpi tolerates that during unwind).
void run_graph(const TaskGraph& graph, int rank, Scheduler schedule,
               int window, const ExecHooks& hooks);

}  // namespace summagen::core::taskgraph

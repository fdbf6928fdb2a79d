// Data-dependency task graph for the SUMMA-family executions.
//
// Every algorithm in core/ used to hard-code exactly one op ordering: the
// SummaGen ExecutionPlan was replayed front-to-back (eager) or with a
// deferred-completion window (pipelined), and SUMMA/2.5D ran a fixed step
// loop. The task graph splits *what must happen before what* from *when it
// happens*: nodes are panel broadcasts, local copies, B/A-panel packs,
// k-chunked GEMM accumulations, and 2.5D reductions; edges are read/write
// dependencies. Schedulers (src/core/taskgraph/executor.hpp) then execute
// any legal topological order — the eager schedule is the construction
// order of the graph, and the dataflow scheduler runs whatever is ready.
//
// Determinism contract: every rank builds the graph from the same
// deterministic inputs (the per-rank identical ExecutionPlan, or the
// rank's own grid coordinates), so node ids agree wherever they must: the
// sub-sequence of comm nodes on any one subgroup communicator is identical
// across its members in ascending-id order — the MPI collective-ordering
// rule, inherited from the plan's eager global order.
//
// Recovery contract: shrink-and-repartition recovery prunes the graph
// (prune_completed) instead of rewriting op lists. Node ids are stable
// under pruning — dropped nodes stay in place and every executor skips
// them — so chunk->broadcast dependencies survive filtering and both
// schedulers remain legal on the un-run subgraph.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/plan.hpp"
#include "src/partition/spec.hpp"

namespace summagen::core::taskgraph {

/// What a node does when executed. Comm kinds (kBcast, kReduce) carry the
/// participating ranks in `owners`; local kinds carry the executing rank
/// in `owner`.
enum class NodeKind {
  kBcast,   ///< panel/block broadcast over a subgroup communicator
  kCopy,    ///< single-owner local copy into WA/WB (zero virtual cost)
  kPack,    ///< local panel pack (a degenerate one-rank broadcast axis)
  kGemm,    ///< one k-chunk of a local DGEMM accumulation
  kReduce,  ///< 2.5D partial-C sum-reduction over the depth communicator
};

/// One node of the graph. `payload`/`aux` are algorithm-defined cookies
/// (SummaGen: plan op index + chunk index; SUMMA/2.5D: step index + axis).
struct TaskNode {
  NodeKind kind = NodeKind::kCopy;
  int id = -1;
  int owner = -1;           ///< executing world rank (local nodes; -1 for comm)
  std::vector<int> owners;  ///< participating world ranks (comm nodes only)
  int payload = -1;
  int aux = 0;
  bool dropped = false;     ///< pruned by recovery; executors skip it
  std::vector<int> preds;
  std::vector<int> succs;

  bool is_comm() const { return !owners.empty(); }
};

/// A DAG of TaskNodes. Ids are dense and assigned in construction order;
/// construction order therefore IS the program (eager) order.
///
/// The graph also keeps a per-rank index of the nodes each rank observes,
/// so an executor running one rank of a p-rank graph touches O(its own
/// nodes) state rather than O(graph). Nodes are only ever appended and
/// their ownership never changes, so the index cannot go stale.
class TaskGraph {
 public:
  /// Adds a local node executed by world rank `owner`.
  int add_local(NodeKind kind, int owner, int payload, int aux = 0);
  /// Adds a collective node over `owners` (strictly ascending world ranks).
  int add_comm(NodeKind kind, std::vector<int> owners, int payload,
               int aux = 0);
  /// Adds the edge pred -> succ. Both must already exist; duplicates and
  /// self-edges throw (they would corrupt the executors' pred counts).
  void add_dep(int pred, int succ);
  /// Marks node `id` pruned (recovery): executors skip it, its id and
  /// edges stay in place.
  void drop(int id);

  const std::vector<TaskNode>& nodes() const { return nodes_; }
  const TaskNode& node(int id) const;
  std::size_t size() const { return nodes_.size(); }

  /// Ids, ascending, of the nodes world rank `rank` observes: its local
  /// nodes (owner == rank) and the comm nodes it participates in (rank in
  /// owners). Dropped nodes stay listed. Empty for a rank with no nodes.
  const std::vector<int>& rank_nodes(int rank) const;

  /// Structural invariants: edge symmetry, id sanity, strictly ascending
  /// comm owners, a rank index equal to the filter it caches, and
  /// acyclicity (Kahn topological sort must consume every node). Throws
  /// std::logic_error.
  void validate() const;

 private:
  std::vector<TaskNode> nodes_;
  /// rank -> rank_nodes(rank). Sparse: a SUMMA step chain names only its
  /// row, column and stack members out of the whole world. Hashed, since
  /// building the p=2048 SummaGen graph appends ~260k entries.
  std::unordered_map<int, std::vector<int>> rank_nodes_;
};

/// Builds the SummaGen graph from the per-rank identical plan: one kCopy
/// node per CopyOp, one kBcast node per CommOp (in plan order, preserving
/// the subgroup collective order), and one kGemm node per GemmChunk.
/// Chunk nodes depend on every panel/copy covering their k-interval and on
/// the previous chunk of the same GemmOp (the ascending-k accumulation
/// chain that keeps every schedule bit-identical).
TaskGraph build_summagen_graph(const partition::PartitionSpec& spec,
                               const ExecutionPlan& plan);

/// Recovery pruning: drops every kGemm node whose C cell is in `done`,
/// then every kBcast/kCopy node left without a live successor (its row or
/// column has no unfinished DGEMM). Node ids are untouched, so the
/// remaining dependencies — including the comm completion order — stay
/// valid for all schedulers. Every rank prunes the identical graph with
/// the identical `done` set, keeping collectives matched.
void prune_completed(TaskGraph& graph, const ExecutionPlan& plan,
                     const std::set<std::pair<int, int>>& done);

/// Builds one rank's SUMMA step chain: per step an A panel node (kBcast
/// over `row_members`, or kPack when the row is trivial), a B panel node
/// over `col_members`, and a kGemm node reading both. The GEMM of step s
/// also writes-after-reads the shared panel workspaces, so it precedes the
/// panel nodes of step s+1. payload = step index; aux: 0 = A, 1 = B.
TaskGraph build_summa_graph(int steps, int rank,
                            const std::vector<int>& row_members,
                            const std::vector<int>& col_members);

/// The SUMMA chain plus 2.5D replication and reduction over
/// `stack_members` (when > 1 deep): repA -> repB precede step 0's panels
/// (payload -1, aux 0/1), and a kReduce node (payload -2) follows the last
/// GEMM.
TaskGraph build_summa25d_graph(int steps, int rank,
                               const std::vector<int>& row_members,
                               const std::vector<int>& col_members,
                               const std::vector<int>& stack_members);

}  // namespace summagen::core::taskgraph

// Data-dependency task graph of a SummaGen execution.
//
// The task graph splits *what must happen before what* from *when it
// happens*: nodes are sub-partition broadcasts, single-owner local copies
// and k-chunked GEMM accumulations; edges are read dependencies plus each
// DGEMM's ascending-k chunk chain. Schedulers
// (src/core/taskgraph/executor.hpp) then execute any legal topological
// order — the eager schedule is the construction order of the graph, and
// the dataflow scheduler runs whatever is ready. (SUMMA and 2.5D have one
// legal order, so they are plain panel loops with no graph.)
//
// Determinism contract: every rank reads the graph built from the same
// per-rank identical ExecutionPlan, so the sub-sequence of comm nodes on
// any one subgroup communicator is identical across its members in
// ascending-id order — the MPI collective-ordering rule, inherited from the
// plan's eager global order.
//
// Posting contract: a comm node has no local predecessor (validate()
// rejects one), so the dataflow scheduler may post any comm node before
// any local node has run.
//
// Recovery contract: shrink-and-repartition recovery prunes the graph
// (prune_completed) instead of rewriting op lists. Node ids are stable
// under pruning — dropped nodes stay in place and every executor skips
// them — so chunk->broadcast dependencies survive filtering and both
// schedulers remain legal on the un-run subgraph.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "src/core/plan.hpp"
#include "src/partition/spec.hpp"

namespace summagen::core::taskgraph {

/// What a node does when executed. kBcast, the comm kind, names its
/// participating ranks through `group`; local kinds carry the executing
/// rank in `owner`.
enum class NodeKind : std::uint8_t {
  kBcast,  ///< sub-partition (panel) broadcast over a subgroup communicator
  kCopy,   ///< single-owner local copy into WA/WB (zero virtual cost)
  kGemm,   ///< one k-chunk of a local DGEMM accumulation
};

/// One node of the graph: a plain 24-byte record with no heap members.
/// Edges and owner lists live in the graph (TaskGraph::preds/succs/owners).
/// `payload` is the node's plan op index (copy_ops, comm_ops or gemm_ops
/// by kind) and `aux` a kGemm node's chunk index.
struct TaskNode {
  NodeKind kind = NodeKind::kCopy;
  bool dropped = false;  ///< pruned by recovery; executors skip it
  int id = -1;
  int owner = -1;  ///< executing world rank (local nodes; -1 for comm)
  int group = -1;  ///< owner-list index (comm nodes; -1 for local)
  int payload = -1;
  int aux = 0;

  bool is_comm() const { return group >= 0; }
};

/// A DAG of TaskNodes, built append-then-seal. Ids are dense and assigned
/// in construction order; construction order therefore IS the program
/// (eager) order.
///
/// Building: register each distinct owner list once (add_group), append
/// nodes (add_local / add_comm naming a group) and edges (add_dep), then
/// seal(). Sealing freezes the edges into CSR arrays — preds(id) and
/// succs(id) list them in add_dep order — and builds the per-rank index:
/// rank_nodes(rank), CSR over the sorted rank ids, so an executor running
/// one rank of a p-rank graph touches O(its own nodes) state rather than
/// O(graph). A sealed graph is immutable except for drop(), which only
/// flips a node's flag.
class TaskGraph {
 public:
  /// Reserves room for `nodes` nodes (builders pass the exact count).
  void reserve(std::size_t nodes);
  /// Registers an owner list (strictly ascending world ranks, non-empty;
  /// throws std::logic_error otherwise) and returns its group index.
  int add_group(std::span<const int> owners);
  /// Adds a local node executed by world rank `owner`.
  int add_local(NodeKind kind, int owner, int payload, int aux = 0);
  /// Adds a collective node over the owners of `group`.
  int add_comm(NodeKind kind, int group, int payload, int aux = 0);
  /// Adds the edge pred -> succ. Both must already exist; self-edges throw
  /// here, duplicates at seal() (they would corrupt the executors' pred
  /// counts).
  void add_dep(int pred, int succ);
  /// Freezes edges and the rank index. Throws std::logic_error on a
  /// duplicate edge. Building stops here: add_* throw afterwards.
  void seal();
  /// Marks node `id` pruned (recovery): executors skip it, its id and
  /// edges stay in place.
  void drop(int id);

  const std::vector<TaskNode>& nodes() const { return nodes_; }
  const TaskNode& node(int id) const;
  std::size_t size() const { return nodes_.size(); }

  std::size_t num_groups() const { return group_off_.size() - 1; }
  /// Participating ranks of node `id` (strictly ascending): its group's
  /// owners for a comm node, empty for a local node.
  std::span<const int> owners(int id) const;

  /// Predecessors / successors of node `id`, in add_dep order (sealed
  /// graphs only).
  std::span<const int> preds(int id) const;
  std::span<const int> succs(int id) const;

  /// Ids, ascending, of the nodes world rank `rank` observes: its local
  /// nodes (owner == rank) and the comm nodes it participates in (rank in
  /// owners). Dropped nodes stay listed. Empty for a rank with no nodes
  /// (sealed graphs only).
  std::span<const int> rank_nodes(int rank) const;

  /// Structural invariants of a sealed graph: id sanity, strictly
  /// ascending group owners, no comm node with a local predecessor (the
  /// posting contract), a rank index equal to the filter it caches, and
  /// acyclicity (Kahn topological sort must consume every node). Edge
  /// symmetry holds by construction (both directions come from one edge
  /// list). Throws std::logic_error.
  void validate() const;

 private:
  void require_sealed(bool sealed) const;
  std::span<const int> group_owners(int group) const;
  /// Unchecked CSR slices behind preds/succs.
  std::span<const int> preds_of(int id) const;
  std::span<const int> succs_of(int id) const;

  std::vector<TaskNode> nodes_;
  /// Owner lists, CSR: group g owns group_ranks_[group_off_[g] ..
  /// group_off_[g + 1]).
  std::vector<int> group_off_{0};
  std::vector<int> group_ranks_;
  /// (pred, succ) in add_dep order until seal(), empty after.
  std::vector<std::pair<int, int>> edges_;
  /// Frozen edges, CSR by node id.
  std::vector<int> pred_off_, pred_ids_;
  std::vector<int> succ_off_, succ_ids_;
  /// Rank index, CSR over the sorted distinct rank ids: rank
  /// index_ranks_[i] observes index_nodes_[index_off_[i] ..
  /// index_off_[i + 1]).
  std::vector<int> index_ranks_, index_off_, index_nodes_;
  bool sealed_ = false;
};

/// Builds the SummaGen graph from the per-rank identical plan: one kCopy
/// node per CopyOp, one kBcast node per CommOp (in plan order, preserving
/// the subgroup collective order), and one kGemm node per GemmChunk.
/// Graph group g is plan.groups[g], so a comm node's `group` equals its
/// CommOp's. Chunk nodes depend on every panel/copy covering their
/// k-interval and on the previous chunk of the same GemmOp (the
/// ascending-k accumulation chain that keeps every schedule
/// bit-identical). Returns a sealed, validated graph.
TaskGraph build_summagen_graph(const partition::PartitionSpec& spec,
                               const ExecutionPlan& plan);

/// Recovery pruning: drops every kGemm node whose C cell is in `done`,
/// then every kBcast/kCopy node left without a live successor (its row or
/// column has no unfinished DGEMM). Node ids are untouched, so the
/// remaining dependencies — including the comm completion order — stay
/// valid for all schedulers. The ranks of a recovery phase share one
/// pruned copy (src/core/summagen.cpp), so collectives stay matched.
void prune_completed(TaskGraph& graph, const ExecutionPlan& plan,
                     const std::set<std::pair<int, int>>& done);

}  // namespace summagen::core::taskgraph

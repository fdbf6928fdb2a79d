#include "src/core/taskgraph/taskgraph.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>

namespace summagen::core::taskgraph {

int TaskGraph::add_local(NodeKind kind, int owner, int payload, int aux) {
  TaskNode n;
  n.kind = kind;
  n.id = static_cast<int>(nodes_.size());
  n.owner = owner;
  n.payload = payload;
  n.aux = aux;
  rank_nodes_[owner].push_back(n.id);
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

int TaskGraph::add_comm(NodeKind kind, std::vector<int> owners, int payload,
                        int aux) {
  if (owners.empty()) {
    throw std::logic_error("TaskGraph: comm node without owners");
  }
  TaskNode n;
  n.kind = kind;
  n.id = static_cast<int>(nodes_.size());
  n.owners = std::move(owners);
  n.payload = payload;
  n.aux = aux;
  for (int r : n.owners) rank_nodes_[r].push_back(n.id);
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

void TaskGraph::add_dep(int pred, int succ) {
  if (pred < 0 || succ < 0 || pred >= static_cast<int>(nodes_.size()) ||
      succ >= static_cast<int>(nodes_.size()) || pred == succ) {
    throw std::logic_error("TaskGraph: bad edge " + std::to_string(pred) +
                           " -> " + std::to_string(succ));
  }
  auto& succs = nodes_[static_cast<std::size_t>(pred)].succs;
  if (std::find(succs.begin(), succs.end(), succ) != succs.end()) {
    throw std::logic_error("TaskGraph: duplicate edge " +
                           std::to_string(pred) + " -> " +
                           std::to_string(succ));
  }
  succs.push_back(succ);
  nodes_[static_cast<std::size_t>(succ)].preds.push_back(pred);
}

void TaskGraph::drop(int id) {
  (void)node(id);  // throws on an out-of-range id
  nodes_[static_cast<std::size_t>(id)].dropped = true;
}

const TaskNode& TaskGraph::node(int id) const {
  if (id < 0 || id >= static_cast<int>(nodes_.size())) {
    throw std::logic_error("TaskGraph: node id out of range");
  }
  return nodes_[static_cast<std::size_t>(id)];
}

const std::vector<int>& TaskGraph::rank_nodes(int rank) const {
  static const std::vector<int> kNone;
  const auto it = rank_nodes_.find(rank);
  return it == rank_nodes_.end() ? kNone : it->second;
}

void TaskGraph::validate() const {
  // Edge symmetry: every succ edge has a matching pred edge and vice versa.
  for (const TaskNode& n : nodes_) {
    for (int s : n.succs) {
      const auto& preds = node(s).preds;
      if (std::find(preds.begin(), preds.end(), n.id) == preds.end()) {
        throw std::logic_error("TaskGraph: asymmetric edge " +
                               std::to_string(n.id) + " -> " +
                               std::to_string(s));
      }
    }
    for (int p : n.preds) {
      const auto& succs = node(p).succs;
      if (std::find(succs.begin(), succs.end(), n.id) == succs.end()) {
        throw std::logic_error("TaskGraph: asymmetric edge " +
                               std::to_string(p) + " -> " +
                               std::to_string(n.id));
      }
    }
  }
  // Rank index: rank_nodes(r) must equal the filter "owner == r or r in
  // owners" in ascending id. Every listed node passing the filter, each
  // list strictly ascending, and the list lengths summing to the number
  // of (node, rank) memberships together imply that equality.
  std::size_t memberships = 0;
  for (const TaskNode& n : nodes_) {
    if (std::adjacent_find(n.owners.begin(), n.owners.end(),
                           std::greater_equal<int>()) != n.owners.end()) {
      throw std::logic_error("TaskGraph: comm node " + std::to_string(n.id) +
                             " owners not strictly ascending");
    }
    memberships += n.is_comm() ? n.owners.size() : 1;
  }
  std::size_t listed = 0;
  for (const auto& [rank, ids] : rank_nodes_) {
    listed += ids.size();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const TaskNode& n = node(ids[i]);
      const bool observes =
          n.is_comm() ? std::binary_search(n.owners.begin(), n.owners.end(),
                                           rank)
                      : n.owner == rank;
      if (!observes || (i > 0 && ids[i - 1] >= ids[i])) {
        throw std::logic_error("TaskGraph: rank index out of sync with nodes");
      }
    }
  }
  if (listed != memberships) {
    throw std::logic_error("TaskGraph: rank index out of sync with nodes");
  }
  // Acyclicity: Kahn's algorithm must consume every node (dropped nodes
  // included — their edges are still present).
  std::vector<int> indeg(nodes_.size(), 0);
  std::deque<int> queue;
  for (const TaskNode& n : nodes_) {
    indeg[static_cast<std::size_t>(n.id)] = static_cast<int>(n.preds.size());
    if (n.preds.empty()) queue.push_back(n.id);
  }
  std::size_t seen = 0;
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    ++seen;
    for (int s : node(id).succs) {
      if (--indeg[static_cast<std::size_t>(s)] == 0) queue.push_back(s);
    }
  }
  if (seen != nodes_.size()) {
    throw std::logic_error("TaskGraph: cycle detected (" +
                           std::to_string(nodes_.size() - seen) +
                           " nodes unreachable)");
  }
}

TaskGraph build_summagen_graph(const partition::PartitionSpec& spec,
                               const ExecutionPlan& plan) {
  TaskGraph g;
  const auto roff = spec.row_offsets();
  const auto coff = spec.col_offsets();

  // Copy nodes first (ids 0..|copy_ops|-1, plan order), indexed by cell so
  // chunk nodes can depend on the copies feeding them — the cascade prune
  // needs copy->chunk edges just like comm->chunk edges.
  std::map<std::pair<int, int>, int> a_copy, b_copy;
  for (std::size_t i = 0; i < plan.copy_ops.size(); ++i) {
    const CopyOp& op = plan.copy_ops[i];
    const int id = g.add_local(NodeKind::kCopy, spec.owner(op.bi, op.bj),
                               static_cast<int>(i));
    (op.is_a ? a_copy : b_copy)[{op.bi, op.bj}] = id;
  }

  // Comm nodes next, in plan order: node id = |copy_ops| + plan index, so
  // ascending-id completion preserves the plan's subgroup collective
  // order. A panels indexed by cell (a chunk reads every panel of the
  // cells its k-interval crosses); B panels by column with their k-span.
  std::map<std::pair<int, int>, std::vector<int>> a_comm;
  struct BSpan {
    std::int64_t k0, k1;
    int node;
  };
  std::map<int, std::vector<BSpan>> b_comm;
  for (std::size_t i = 0; i < plan.comm_ops.size(); ++i) {
    const CommOp& op = plan.comm_ops[i];
    const int id =
        g.add_comm(NodeKind::kBcast, op.owners, static_cast<int>(i));
    if (op.is_a) {
      a_comm[{op.bi, op.bj}].push_back(id);
    } else {
      const std::int64_t k0 = roff[static_cast<std::size_t>(op.bi)] + op.p0;
      b_comm[op.bj].push_back({k0, k0 + op.rows, id});
    }
  }

  // Chunk nodes last, grouped per GemmOp in plan order. Each chunk reads
  // the A cells of row bi whose column blocks cross [k0, k1), the B panels
  // of column bj crossing it, and chains on the previous chunk of its op —
  // accumulation into C(bi, bj) must stay in ascending-k order for the
  // bit-identity invariant.
  const int nrow_blk = static_cast<int>(spec.subph.size());
  const int ncol_blk = static_cast<int>(spec.subpw.size());
  for (std::size_t gi = 0; gi < plan.gemm_ops.size(); ++gi) {
    const GemmOp& gop = plan.gemm_ops[gi];
    int prev = -1;
    for (std::size_t ci = 0; ci < gop.chunks.size(); ++ci) {
      const GemmChunk& ch = gop.chunks[ci];
      const int id = g.add_local(NodeKind::kGemm, gop.owner,
                                 static_cast<int>(gi), static_cast<int>(ci));
      if (prev >= 0) g.add_dep(prev, id);
      prev = id;
      for (int cb = 0; cb < ncol_blk; ++cb) {
        if (coff[static_cast<std::size_t>(cb)] >= ch.k1 ||
            coff[static_cast<std::size_t>(cb) + 1] <= ch.k0) {
          continue;
        }
        if (auto it = a_comm.find({gop.bi, cb}); it != a_comm.end()) {
          for (int nid : it->second) g.add_dep(nid, id);
        } else if (auto ic = a_copy.find({gop.bi, cb}); ic != a_copy.end()) {
          g.add_dep(ic->second, id);
        }
      }
      if (auto it = b_comm.find(gop.bj); it != b_comm.end()) {
        for (const BSpan& s : it->second) {
          if (s.k0 < ch.k1 && s.k1 > ch.k0) g.add_dep(s.node, id);
        }
      }
      for (int rb = 0; rb < nrow_blk; ++rb) {
        if (roff[static_cast<std::size_t>(rb)] >= ch.k1 ||
            roff[static_cast<std::size_t>(rb) + 1] <= ch.k0) {
          continue;
        }
        if (auto ib = b_copy.find({rb, gop.bj}); ib != b_copy.end()) {
          g.add_dep(ib->second, id);
        }
      }
    }
  }
  g.validate();
  return g;
}

void prune_completed(TaskGraph& graph, const ExecutionPlan& plan,
                     const std::set<std::pair<int, int>>& done) {
  const auto& nodes = graph.nodes();
  for (const TaskNode& n : nodes) {
    if (n.kind != NodeKind::kGemm) continue;
    const GemmOp& gop = plan.gemm_ops[static_cast<std::size_t>(n.payload)];
    if (done.count({gop.bi, gop.bj}) != 0) graph.drop(n.id);
  }
  // A broadcast/copy survives iff some remaining DGEMM still reads it.
  // Every panel of row bi feeds a chunk of every DGEMM in row bi (a DGEMM
  // reads its whole row line), so this is exactly the historical rule
  // "keep an A op iff its row has a surviving DGEMM" (B: column).
  for (const TaskNode& n : nodes) {
    if (n.kind != NodeKind::kBcast && n.kind != NodeKind::kCopy) continue;
    bool live_succ = false;
    for (int s : n.succs) {
      live_succ =
          live_succ || !nodes[static_cast<std::size_t>(s)].dropped;
    }
    if (!live_succ) graph.drop(n.id);
  }
}

namespace {

/// Shared step-chain builder: SUMMA is the stack-less special case of the
/// 2.5D graph.
TaskGraph build_step_chain(int steps, int rank,
                           const std::vector<int>& row_members,
                           const std::vector<int>& col_members,
                           const std::vector<int>& stack_members) {
  TaskGraph g;
  int rep_a = -1, rep_b = -1;
  if (stack_members.size() > 1) {
    rep_a = g.add_comm(NodeKind::kBcast, stack_members, /*payload=*/-1,
                       /*aux=*/0);
    rep_b = g.add_comm(NodeKind::kBcast, stack_members, /*payload=*/-1,
                       /*aux=*/1);
    g.add_dep(rep_a, rep_b);  // depth-communicator collective order
  }
  int prev_gemm = -1;
  for (int s = 0; s < steps; ++s) {
    const int a = row_members.size() > 1
                      ? g.add_comm(NodeKind::kBcast, row_members, s, 0)
                      : g.add_local(NodeKind::kPack, rank, s, 0);
    const int b = col_members.size() > 1
                      ? g.add_comm(NodeKind::kBcast, col_members, s, 1)
                      : g.add_local(NodeKind::kPack, rank, s, 1);
    const int gm = g.add_local(NodeKind::kGemm, rank, s, 2);
    g.add_dep(a, gm);
    g.add_dep(b, gm);
    if (prev_gemm >= 0) {
      // Ascending-k accumulation chain, plus write-after-read: step s
      // overwrites the shared WA/WB panel workspaces step s-1's GEMM read.
      g.add_dep(prev_gemm, gm);
      g.add_dep(prev_gemm, a);
      g.add_dep(prev_gemm, b);
    } else {
      if (rep_a >= 0) g.add_dep(rep_a, a);
      if (rep_b >= 0) g.add_dep(rep_b, b);
    }
    prev_gemm = gm;
  }
  if (stack_members.size() > 1) {
    const int red = g.add_comm(NodeKind::kReduce, stack_members,
                               /*payload=*/-2, /*aux=*/0);
    if (prev_gemm >= 0) {
      g.add_dep(prev_gemm, red);
    } else if (rep_b >= 0) {
      g.add_dep(rep_b, red);
    }
  }
  g.validate();
  return g;
}

}  // namespace

TaskGraph build_summa_graph(int steps, int rank,
                            const std::vector<int>& row_members,
                            const std::vector<int>& col_members) {
  return build_step_chain(steps, rank, row_members, col_members, {});
}

TaskGraph build_summa25d_graph(int steps, int rank,
                               const std::vector<int>& row_members,
                               const std::vector<int>& col_members,
                               const std::vector<int>& stack_members) {
  return build_step_chain(steps, rank, row_members, col_members,
                          stack_members);
}

}  // namespace summagen::core::taskgraph

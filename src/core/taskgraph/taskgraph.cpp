#include "src/core/taskgraph/taskgraph.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>

namespace summagen::core::taskgraph {

void TaskGraph::require_sealed(bool sealed) const {
  if (sealed_ != sealed) {
    throw std::logic_error(sealed ? "TaskGraph: not sealed"
                                  : "TaskGraph: sealed graphs are immutable");
  }
}

void TaskGraph::reserve(std::size_t nodes) { nodes_.reserve(nodes); }

int TaskGraph::add_group(std::span<const int> owners) {
  require_sealed(false);
  if (owners.empty()) {
    throw std::logic_error("TaskGraph: comm group without owners");
  }
  if (std::adjacent_find(owners.begin(), owners.end(),
                         std::greater_equal<int>()) != owners.end()) {
    throw std::logic_error("TaskGraph: group owners not strictly ascending");
  }
  group_ranks_.insert(group_ranks_.end(), owners.begin(), owners.end());
  group_off_.push_back(static_cast<int>(group_ranks_.size()));
  return static_cast<int>(num_groups()) - 1;
}

int TaskGraph::add_local(NodeKind kind, int owner, int payload, int aux) {
  require_sealed(false);
  TaskNode n;
  n.kind = kind;
  n.id = static_cast<int>(nodes_.size());
  n.owner = owner;
  n.payload = payload;
  n.aux = aux;
  nodes_.push_back(n);
  return n.id;
}

int TaskGraph::add_comm(NodeKind kind, int group, int payload, int aux) {
  require_sealed(false);
  if (group < 0 || group >= static_cast<int>(num_groups())) {
    throw std::logic_error("TaskGraph: comm node names unknown group " +
                           std::to_string(group));
  }
  TaskNode n;
  n.kind = kind;
  n.id = static_cast<int>(nodes_.size());
  n.group = group;
  n.payload = payload;
  n.aux = aux;
  nodes_.push_back(n);
  return n.id;
}

void TaskGraph::add_dep(int pred, int succ) {
  require_sealed(false);
  if (pred < 0 || succ < 0 || pred >= static_cast<int>(nodes_.size()) ||
      succ >= static_cast<int>(nodes_.size()) || pred == succ) {
    throw std::logic_error("TaskGraph: bad edge " + std::to_string(pred) +
                           " -> " + std::to_string(succ));
  }
  edges_.emplace_back(pred, succ);
}

void TaskGraph::seal() {
  require_sealed(false);
  const std::size_t n = nodes_.size();

  // Edges: a counting sort by each endpoint. It is stable, so every
  // node's preds and succs keep add_dep order — the executors' ready-set
  // ties and completion order depend on nothing else.
  pred_off_.assign(n + 1, 0);
  succ_off_.assign(n + 1, 0);
  for (const auto& [p, s] : edges_) {
    ++succ_off_[static_cast<std::size_t>(p) + 1];
    ++pred_off_[static_cast<std::size_t>(s) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    pred_off_[i + 1] += pred_off_[i];
    succ_off_[i + 1] += succ_off_[i];
  }
  pred_ids_.resize(edges_.size());
  succ_ids_.resize(edges_.size());
  {
    std::vector<int> pred_at(pred_off_.begin(), pred_off_.end() - 1);
    std::vector<int> succ_at(succ_off_.begin(), succ_off_.end() - 1);
    for (const auto& [p, s] : edges_) {
      succ_ids_[static_cast<std::size_t>(
          succ_at[static_cast<std::size_t>(p)]++)] = s;
      pred_ids_[static_cast<std::size_t>(
          pred_at[static_cast<std::size_t>(s)]++)] = p;
    }
  }
  std::vector<std::pair<int, int>>().swap(edges_);
  // A duplicate edge would be counted twice by the executors' pending-
  // predecessor counts.
  {
    std::vector<int> seen_from(n, -1);
    for (std::size_t p = 0; p < n; ++p) {
      for (int s : succs_of(static_cast<int>(p))) {
        int& mark = seen_from[static_cast<std::size_t>(s)];
        if (mark == static_cast<int>(p)) {
          throw std::logic_error("TaskGraph: duplicate edge " +
                                 std::to_string(p) + " -> " +
                                 std::to_string(s));
        }
        mark = static_cast<int>(p);
      }
    }
  }

  // Rank index over the sorted distinct rank ids. Filling in node order
  // makes every rank's list ascending.
  index_ranks_ = group_ranks_;
  for (const TaskNode& node : nodes_) {
    if (!node.is_comm()) index_ranks_.push_back(node.owner);
  }
  std::sort(index_ranks_.begin(), index_ranks_.end());
  index_ranks_.erase(std::unique(index_ranks_.begin(), index_ranks_.end()),
                     index_ranks_.end());
  index_ranks_.shrink_to_fit();
  const auto slot = [this](int rank) {
    return static_cast<std::size_t>(
        std::lower_bound(index_ranks_.begin(), index_ranks_.end(), rank) -
        index_ranks_.begin());
  };
  std::vector<int> group_slots(group_ranks_.size());
  std::transform(group_ranks_.begin(), group_ranks_.end(),
                 group_slots.begin(),
                 [&slot](int r) { return static_cast<int>(slot(r)); });
  const auto slots_of = [&](const TaskNode& node) {
    const auto g = static_cast<std::size_t>(node.group);
    return std::span<const int>(group_slots)
        .subspan(static_cast<std::size_t>(group_off_[g]),
                 static_cast<std::size_t>(group_off_[g + 1] - group_off_[g]));
  };
  index_off_.assign(index_ranks_.size() + 1, 0);
  for (const TaskNode& node : nodes_) {
    if (node.is_comm()) {
      for (int s : slots_of(node)) ++index_off_[static_cast<std::size_t>(s) + 1];
    } else {
      ++index_off_[slot(node.owner) + 1];
    }
  }
  for (std::size_t i = 0; i + 1 < index_off_.size(); ++i) {
    index_off_[i + 1] += index_off_[i];
  }
  index_nodes_.resize(static_cast<std::size_t>(index_off_.back()));
  std::vector<int> at(index_off_.begin(), index_off_.end() - 1);
  for (const TaskNode& node : nodes_) {
    if (node.is_comm()) {
      for (int s : slots_of(node)) {
        index_nodes_[static_cast<std::size_t>(
            at[static_cast<std::size_t>(s)]++)] = node.id;
      }
    } else {
      index_nodes_[static_cast<std::size_t>(at[slot(node.owner)]++)] =
          node.id;
    }
  }
  sealed_ = true;
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

std::span<const int> TaskGraph::group_owners(int group) const {
  if (group < 0 || group >= static_cast<int>(num_groups())) {
    throw std::logic_error("TaskGraph: group index out of range");
  }
  const auto g = static_cast<std::size_t>(group);
  return std::span<const int>(group_ranks_)
      .subspan(static_cast<std::size_t>(group_off_[g]),
               static_cast<std::size_t>(group_off_[g + 1] - group_off_[g]));
}

std::span<const int> TaskGraph::owners(int id) const {
  const TaskNode& n = node(id);
  return n.is_comm() ? group_owners(n.group) : std::span<const int>();
}

std::span<const int> TaskGraph::preds(int id) const {
  require_sealed(true);
  (void)node(id);
  return preds_of(id);
}

std::span<const int> TaskGraph::succs(int id) const {
  require_sealed(true);
  (void)node(id);
  return succs_of(id);
}

std::span<const int> TaskGraph::preds_of(int id) const {
  const auto i = static_cast<std::size_t>(id);
  return std::span<const int>(pred_ids_)
      .subspan(static_cast<std::size_t>(pred_off_[i]),
               static_cast<std::size_t>(pred_off_[i + 1] - pred_off_[i]));
}

std::span<const int> TaskGraph::succs_of(int id) const {
  const auto i = static_cast<std::size_t>(id);
  return std::span<const int>(succ_ids_)
      .subspan(static_cast<std::size_t>(succ_off_[i]),
               static_cast<std::size_t>(succ_off_[i + 1] - succ_off_[i]));
}

std::span<const int> TaskGraph::rank_nodes(int rank) const {
  require_sealed(true);
  const auto it =
      std::lower_bound(index_ranks_.begin(), index_ranks_.end(), rank);
  if (it == index_ranks_.end() || *it != rank) return {};
  const auto i = static_cast<std::size_t>(it - index_ranks_.begin());
  return std::span<const int>(index_nodes_)
      .subspan(static_cast<std::size_t>(index_off_[i]),
               static_cast<std::size_t>(index_off_[i + 1] - index_off_[i]));
}

void TaskGraph::validate() const {
  require_sealed(true);
  // Ids and groups: a node's id is its position, and a comm node names a
  // registered group whose owners are strictly ascending.
  for (std::size_t g = 0; g < num_groups(); ++g) {
    const auto owners = group_owners(static_cast<int>(g));
    if (owners.empty() ||
        std::adjacent_find(owners.begin(), owners.end(),
                           std::greater_equal<int>()) != owners.end()) {
      throw std::logic_error("TaskGraph: group " + std::to_string(g) +
                             " owners not strictly ascending");
    }
  }
  std::size_t memberships = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const TaskNode& n = nodes_[i];
    if (n.id != static_cast<int>(i) || n.group < -1 ||
        n.group >= static_cast<int>(num_groups())) {
      throw std::logic_error("TaskGraph: node " + std::to_string(i) +
                             " has a bad id or group");
    }
    memberships += n.is_comm() ? owners(n.id).size() : 1;
    // The posting contract: the dataflow scheduler may post a comm node
    // before any local node has run.
    if (n.is_comm()) {
      for (int p : preds_of(n.id)) {
        if (!nodes_[static_cast<std::size_t>(p)].is_comm()) {
          throw std::logic_error("TaskGraph: comm node " + std::to_string(i) +
                                 " has local predecessor " +
                                 std::to_string(p));
        }
      }
    }
  }
  // Rank index: rank_nodes(r) must equal the filter "owner == r or r in
  // owners" in ascending id. Every listed node passing the filter, each
  // list strictly ascending, and the list lengths summing to the number
  // of (node, rank) memberships together imply that equality.
  for (std::size_t r = 0; r < index_ranks_.size(); ++r) {
    const int rank = index_ranks_[r];
    const auto ids = rank_nodes(rank);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const TaskNode& n = node(ids[i]);
      const auto own = owners(n.id);
      const bool observes = n.is_comm()
                                ? std::binary_search(own.begin(), own.end(),
                                                     rank)
                                : n.owner == rank;
      if (!observes || (i > 0 && ids[i - 1] >= ids[i])) {
        throw std::logic_error("TaskGraph: rank index out of sync with nodes");
      }
    }
  }
  if (index_nodes_.size() != memberships) {
    throw std::logic_error("TaskGraph: rank index out of sync with nodes");
  }
  // Acyclicity: Kahn's algorithm must consume every node (dropped nodes
  // included — their edges are still present).
  std::vector<int> indeg(nodes_.size(), 0);
  std::deque<int> queue;
  for (const TaskNode& n : nodes_) {
    indeg[static_cast<std::size_t>(n.id)] =
        static_cast<int>(preds_of(n.id).size());
    if (indeg[static_cast<std::size_t>(n.id)] == 0) queue.push_back(n.id);
  }
  std::size_t seen = 0;
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    ++seen;
    for (int s : succs_of(id)) {
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
  std::size_t nchunks = 0;
  for (const GemmOp& gop : plan.gemm_ops) nchunks += gop.chunks.size();
  g.reserve(plan.copy_ops.size() + plan.comm_ops.size() + nchunks);
  for (const std::vector<int>& owners : plan.groups) g.add_group(owners);
  const std::vector<std::int64_t>& roff = plan.roff;
  const std::vector<std::int64_t>& coff = plan.coff;

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
    const int id = g.add_comm(NodeKind::kBcast, op.group, static_cast<int>(i));
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
  //
  // The blocks crossing [k0, k1) — off[b] < k1 and off[b + 1] > k0 — are
  // a contiguous run of the nondecreasing offsets, found by bisection.
  const auto crossing = [](const std::vector<std::int64_t>& off,
                           std::int64_t k0) {
    return static_cast<int>(
        std::upper_bound(off.begin() + 1, off.end(), k0) - off.begin() - 1);
  };
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
      for (int cb = crossing(coff, ch.k0);
           cb < ncol_blk && coff[static_cast<std::size_t>(cb)] < ch.k1;
           ++cb) {
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
      for (int rb = crossing(roff, ch.k0);
           rb < nrow_blk && roff[static_cast<std::size_t>(rb)] < ch.k1;
           ++rb) {
        if (auto ib = b_copy.find({rb, gop.bj}); ib != b_copy.end()) {
          g.add_dep(ib->second, id);
        }
      }
    }
  }
  g.seal();
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
    const auto succs = graph.succs(n.id);
    const bool live_succ = std::any_of(succs.begin(), succs.end(), [&](int s) {
      return !nodes[static_cast<std::size_t>(s)].dropped;
    });
    if (!live_succ) graph.drop(n.id);
  }
}

}  // namespace summagen::core::taskgraph

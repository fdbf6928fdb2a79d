// Task-graph structure and scheduling contracts (src/core/taskgraph/):
//
//  * the SummaGen graph is acyclic, every broadcast feeds at least one
//    DGEMM chunk, and chunk dependencies reproduce the plan's
//    prefix-of-comm_ops contract in ascending collective order;
//  * recovery pruning drops exactly what the historical row/column
//    liveness rule dropped, with node ids untouched;
//  * validate() rejects bad edges, cycles and a comm node with a local
//    predecessor (the dataflow scheduler posts comm nodes ahead);
//  * the per-rank index lists exactly the nodes a rank observes, and the
//    executor walking it makes the same hook calls, in the same order, as
//    a whole-graph scan;
//  * the compact representation: nodes are small heap-free records, and
//    sealing keeps every edge list in add_dep order.
#include "src/core/taskgraph/taskgraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/plan.hpp"
#include "src/core/taskgraph/executor.hpp"
#include "src/partition/areas.hpp"
#include "src/partition/nrrp.hpp"
#include "src/partition/shapes.hpp"

namespace summagen::core {
namespace {

using taskgraph::NodeKind;
using taskgraph::TaskGraph;
using taskgraph::TaskNode;

// Tripwire: a node is a plain record of at most 24 bytes. Edges and owner
// lists live in the graph's CSR arrays; a heap member here would cost the
// p=2048 graph tens of MiB again.
static_assert(sizeof(TaskNode) <= 24, "TaskNode grew past 24 bytes");
static_assert(std::is_trivially_copyable_v<TaskNode>,
              "TaskNode must stay a heap-free record");

std::vector<int> to_vector(std::span<const int> ids) {
  return {ids.begin(), ids.end()};
}

partition::PartitionSpec shape_spec(partition::Shape shape,
                                    std::int64_t n = 120) {
  const auto areas = partition::partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  return partition::build_shape(shape, n, areas);
}

std::vector<partition::Shape> all_shapes() {
  return {partition::Shape::kSquareCorner, partition::Shape::kSquareRectangle,
          partition::Shape::kBlockRectangle,
          partition::Shape::kOneDimensional};
}

/// Largest comm-node id among a node's predecessors, -1 when none.
int max_comm_pred(const TaskGraph& g, const TaskNode& n) {
  int dep = -1;
  for (int p : g.preds(n.id)) {
    if (g.node(p).is_comm()) dep = std::max(dep, p);
  }
  return dep;
}

/// Hooks that log every call as "<call><node id>[x<fused length>]".
taskgraph::ExecHooks recording_hooks(std::vector<std::string>& log) {
  taskgraph::ExecHooks hooks;
  hooks.run_local = [&log](const TaskNode& n) {
    log.push_back("local" + std::to_string(n.id));
  };
  hooks.run_comm = [&log](const TaskNode& n) {
    log.push_back("comm" + std::to_string(n.id));
  };
  hooks.run_fused = [&log](const TaskNode& n, int count) {
    log.push_back("fused" + std::to_string(n.id) + "x" +
                  std::to_string(count));
  };
  hooks.post_comm = [&log](const TaskNode& n) {
    log.push_back("post" + std::to_string(n.id));
    return sgmpi::Request{};
  };
  hooks.complete_comm = [&log](const TaskNode& n, sgmpi::Request&) {
    log.push_back("complete" + std::to_string(n.id));
  };
  return hooks;
}

TEST(SummagenGraph, NodeInventoryMatchesPlan) {
  for (const auto shape : all_shapes()) {
    const auto spec = shape_spec(shape);
    SummaGenOptions options;
    options.bcast_panel_rows = 16;  // panelled: several comms per line
    const ExecutionPlan plan = build_plan(spec, options);
    const TaskGraph g = taskgraph::build_summagen_graph(spec, plan);
    EXPECT_NO_THROW(g.validate());

    std::size_t chunks = 0;
    for (const auto& op : plan.gemm_ops) chunks += op.chunks.size();
    ASSERT_EQ(g.size(), plan.copy_ops.size() + plan.comm_ops.size() + chunks);

    // Construction order is copies, comms, chunks — and the comm nodes
    // preserve the plan's eager global (collective) order: node
    // |copy_ops| + i is plan comm op i, over the same subgroup: its
    // line's owners, as the spec lists them.
    for (std::size_t i = 0; i < plan.copy_ops.size(); ++i) {
      EXPECT_EQ(g.node(static_cast<int>(i)).kind, NodeKind::kCopy);
    }
    ASSERT_EQ(g.num_groups(), plan.groups.size());
    for (std::size_t i = 0; i < plan.comm_ops.size(); ++i) {
      const CommOp& op = plan.comm_ops[i];
      const TaskNode& n =
          g.node(static_cast<int>(plan.copy_ops.size() + i));
      EXPECT_EQ(n.kind, NodeKind::kBcast);
      EXPECT_EQ(n.payload, static_cast<int>(i));
      EXPECT_EQ(n.group, op.group);
      EXPECT_EQ(to_vector(g.owners(n.id)),
                op.is_a ? spec.ranks_in_row(op.bi) : spec.ranks_in_col(op.bj));
      EXPECT_EQ(to_vector(g.owners(n.id))[static_cast<std::size_t>(op.root)],
                op.owner);
    }
  }
}

TEST(SummagenGraph, EveryBroadcastFeedsAGemmChunk) {
  for (const auto shape : all_shapes()) {
    const auto spec = shape_spec(shape);
    for (const std::int64_t panel_rows : {std::int64_t{0}, std::int64_t{16}}) {
      SummaGenOptions options;
      options.bcast_panel_rows = panel_rows;
      const ExecutionPlan plan = build_plan(spec, options);
      const TaskGraph g = taskgraph::build_summagen_graph(spec, plan);
      for (const TaskNode& n : g.nodes()) {
        if (n.kind != NodeKind::kBcast) continue;
        const auto succs = g.succs(n.id);
        const bool feeds_gemm = std::any_of(
            succs.begin(), succs.end(),
            [&](int s) { return g.node(s).kind == NodeKind::kGemm; });
        EXPECT_TRUE(feeds_gemm)
            << partition::shape_name(shape) << " bcast node " << n.id
            << " (plan comm op " << n.payload << ") feeds no DGEMM chunk";
      }
    }
  }
}

TEST(SummagenGraph, ChunkDepsReproducePlanPrefixes) {
  for (const auto shape : all_shapes()) {
    const auto spec = shape_spec(shape);
    SummaGenOptions options;
    options.bcast_panel_rows = 16;
    const ExecutionPlan plan = build_plan(spec, options);
    const TaskGraph g = taskgraph::build_summagen_graph(spec, plan);
    const int ncopies = static_cast<int>(plan.copy_ops.size());
    for (const TaskNode& n : g.nodes()) {
      if (n.kind != NodeKind::kGemm) continue;
      const GemmOp& op = plan.gemm_ops[static_cast<std::size_t>(n.payload)];
      const GemmChunk& ch = op.chunks[static_cast<std::size_t>(n.aux)];
      // A chunk's completion horizon — the largest comm node it waits for
      // — is exactly the plan's prefix bound, offset by the copy block.
      // Chunks of one op have strictly increasing dep, so the horizons of
      // the chunk chain are strictly increasing too.
      const int horizon = max_comm_pred(g, n);
      if (ch.dep < 0) {
        EXPECT_EQ(horizon, -1) << "dep-free chunk waits for a comm node";
      } else {
        EXPECT_EQ(horizon, ncopies + ch.dep)
            << partition::shape_name(shape) << " gemm op " << n.payload
            << " chunk " << n.aux;
      }
      if (n.aux > 0) {
        const TaskNode* prev = nullptr;
        for (int p : g.preds(n.id)) {
          const TaskNode& pn = g.node(p);
          if (pn.kind == NodeKind::kGemm && pn.payload == n.payload) {
            prev = &pn;
          }
        }
        ASSERT_NE(prev, nullptr) << "chunk chain broken";
        EXPECT_EQ(prev->aux, n.aux - 1);
        EXPECT_GT(horizon, max_comm_pred(g, *prev));
      }
    }
  }
}

TEST(SummagenGraph, PruneMatchesRowColumnLiveness) {
  const auto spec = shape_spec(partition::Shape::kSquareCorner);
  SummaGenOptions options;
  options.bcast_panel_rows = 16;
  const ExecutionPlan plan = build_plan(spec, options);

  // Mark a couple of cells finished, covering "row fully done" and
  // "row partially done" cases.
  std::set<std::pair<int, int>> done;
  done.insert({plan.gemm_ops[0].bi, plan.gemm_ops[0].bj});
  done.insert({plan.gemm_ops.back().bi, plan.gemm_ops.back().bj});

  TaskGraph g = taskgraph::build_summagen_graph(spec, plan);
  taskgraph::prune_completed(g, plan, done);
  EXPECT_NO_THROW(g.validate());  // ids and edges survive pruning

  std::set<int> live_rows, live_cols;
  for (const auto& op : plan.gemm_ops) {
    if (done.count({op.bi, op.bj}) == 0) {
      live_rows.insert(op.bi);
      live_cols.insert(op.bj);
    }
  }
  for (const TaskNode& n : g.nodes()) {
    switch (n.kind) {
      case NodeKind::kGemm: {
        const GemmOp& op =
            plan.gemm_ops[static_cast<std::size_t>(n.payload)];
        EXPECT_EQ(n.dropped, done.count({op.bi, op.bj}) != 0);
        break;
      }
      case NodeKind::kBcast: {
        const CommOp& op =
            plan.comm_ops[static_cast<std::size_t>(n.payload)];
        const bool live = op.is_a ? live_rows.count(op.bi) != 0
                                  : live_cols.count(op.bj) != 0;
        EXPECT_EQ(n.dropped, !live) << "comm op " << n.payload;
        break;
      }
      case NodeKind::kCopy: {
        const CopyOp& op =
            plan.copy_ops[static_cast<std::size_t>(n.payload)];
        const bool live = op.is_a ? live_rows.count(op.bi) != 0
                                  : live_cols.count(op.bj) != 0;
        EXPECT_EQ(n.dropped, !live) << "copy op " << n.payload;
        break;
      }
      default:
        FAIL() << "unexpected node kind in a SummaGen graph";
    }
  }
}

TEST(TaskGraphInvariants, RejectsBadEdgesAndCycles) {
  const auto two_nodes = [] {
    TaskGraph g;
    g.add_local(NodeKind::kCopy, 0, 0);
    g.add_local(NodeKind::kGemm, 0, 1);
    return g;
  };
  // Self edges and unknown endpoints throw at add_dep; a duplicate edge
  // throws at seal(), before any executor can see the graph.
  TaskGraph g = two_nodes();
  g.add_dep(0, 1);
  EXPECT_THROW(g.add_dep(0, 0), std::logic_error);   // self edge
  EXPECT_THROW(g.add_dep(0, 99), std::logic_error);  // unknown node
  TaskGraph dup = g;
  dup.add_dep(0, 1);
  EXPECT_THROW(dup.seal(), std::logic_error);  // duplicate
  std::vector<std::string> log;
  EXPECT_THROW(
      taskgraph::run_graph(dup, 0, Scheduler::kEager, 0, recording_hooks(log)),
      std::logic_error);  // an unsealed graph never executes
  EXPECT_TRUE(log.empty());
  g.seal();
  EXPECT_NO_THROW(g.validate());
  EXPECT_THROW(g.add_dep(1, 0), std::logic_error);  // sealed: immutable
  taskgraph::ExecHooks partial = recording_hooks(log);
  partial.run_fused = nullptr;
  EXPECT_THROW(taskgraph::run_graph(g, 0, Scheduler::kEager, 0, partial),
               std::logic_error);  // every hook is required
  EXPECT_TRUE(log.empty());
  TaskGraph cycle = two_nodes();
  cycle.add_dep(0, 1);
  cycle.add_dep(1, 0);  // structurally fine, semantically a cycle
  cycle.seal();
  EXPECT_THROW(cycle.validate(), std::logic_error);
  // The posting contract: the dataflow scheduler may post a comm node
  // before any local node has run, so no comm node waits for local work.
  TaskGraph late;
  const int line = late.add_group(std::vector<int>{0, 1});
  const int copy = late.add_local(NodeKind::kCopy, 0, 0);
  const int bcast = late.add_comm(NodeKind::kBcast, line, 0);
  late.add_dep(copy, bcast);
  late.seal();
  EXPECT_THROW(late.validate(), std::logic_error);
  TaskGraph comm;
  EXPECT_THROW(comm.add_group(std::vector<int>{}), std::logic_error);
  EXPECT_THROW(comm.add_comm(NodeKind::kBcast, 0, 0), std::logic_error);
}

TEST(TaskGraph, SealKeepsInsertionOrder) {
  TaskGraph g;
  for (int i = 0; i < 5; ++i) g.add_local(NodeKind::kGemm, 0, i);
  g.add_dep(3, 4);
  g.add_dep(0, 4);
  g.add_dep(0, 3);
  g.add_dep(2, 4);
  g.add_dep(0, 1);
  g.add_dep(1, 4);
  g.add_dep(0, 2);
  g.seal();
  EXPECT_EQ(to_vector(g.preds(4)), (std::vector<int>{3, 0, 2, 1}));
  EXPECT_EQ(to_vector(g.succs(0)), (std::vector<int>{4, 3, 1, 2}));
  EXPECT_EQ(to_vector(g.preds(3)), (std::vector<int>{0}));
  EXPECT_TRUE(g.preds(0).empty());
  EXPECT_TRUE(g.succs(4).empty());
  EXPECT_NO_THROW(g.validate());
}

bool observes(const TaskGraph& g, const TaskNode& n, int rank) {
  const auto owners = g.owners(n.id);
  return n.owner == rank ||
         std::find(owners.begin(), owners.end(), rank) != owners.end();
}

/// Every world rank named by a node, plus one rank named by none.
std::vector<int> graph_ranks(const TaskGraph& g) {
  std::set<int> ranks;
  for (const TaskNode& n : g.nodes()) {
    if (n.is_comm()) {
      const auto owners = g.owners(n.id);
      ranks.insert(owners.begin(), owners.end());
    } else {
      ranks.insert(n.owner);
    }
  }
  ranks.insert(*ranks.rbegin() + 1);
  return {ranks.begin(), ranks.end()};
}

struct NamedGraph {
  std::string name;
  TaskGraph graph;
};

/// The paper shapes with and without panelled broadcasts, an NRRP p=64
/// layout, and a recovery-pruned graph.
std::vector<NamedGraph> graphs_under_test() {
  std::vector<NamedGraph> out;
  for (const auto shape : all_shapes()) {
    const auto spec = shape_spec(shape);
    for (const std::int64_t panel_rows : {std::int64_t{0}, std::int64_t{16}}) {
      SummaGenOptions options;
      options.bcast_panel_rows = panel_rows;
      const ExecutionPlan plan = build_plan(spec, options);
      out.push_back({std::string(partition::shape_name(shape)) + "/panel" +
                         std::to_string(panel_rows),
                     taskgraph::build_summagen_graph(spec, plan)});
      if (shape == partition::Shape::kSquareCorner && panel_rows > 0) {
        TaskGraph pruned = taskgraph::build_summagen_graph(spec, plan);
        taskgraph::prune_completed(
            pruned, plan,
            {{plan.gemm_ops[0].bi, plan.gemm_ops[0].bj},
             {plan.gemm_ops.back().bi, plan.gemm_ops.back().bj}});
        out.push_back({"square_corner/panel16/pruned", std::move(pruned)});
      }
    }
  }
  const std::int64_t n = 512;
  const auto nrrp = partition::nrrp_partition(
      n, partition::partition_areas_cpm(n * n, std::vector<double>(64, 1.0)));
  out.push_back({"nrrp/p64", taskgraph::build_summagen_graph(
                                 nrrp, build_plan(nrrp, SummaGenOptions{}))});
  return out;
}

TEST(RankIndex, EqualsBruteForceFilter) {
  for (const NamedGraph& ng : graphs_under_test()) {
    const TaskGraph& g = ng.graph;
    for (int r : graph_ranks(g)) {
      std::vector<int> expect;
      for (const TaskNode& n : g.nodes()) {
        if (observes(g, n, r)) expect.push_back(n.id);
      }
      const std::vector<int> got = to_vector(g.rank_nodes(r));
      EXPECT_EQ(got, expect) << ng.name << " rank " << r;
      EXPECT_EQ(std::adjacent_find(got.begin(), got.end(),
                                   std::greater_equal<int>()),
                got.end())
          << ng.name << " rank " << r << ": not strictly ascending";
    }
  }
}

TEST(RankIndex, ValidateRejectsUnsortedOwners) {
  // Owner lists are checked where they enter the graph: add_group, before
  // any comm node can name them or the rank index can list them.
  TaskGraph g;
  EXPECT_THROW(g.add_group(std::vector<int>{2, 0}), std::logic_error);
  EXPECT_THROW(g.add_group(std::vector<int>{1, 1}), std::logic_error);
  EXPECT_EQ(g.num_groups(), 0u);
  const int ok = g.add_group(std::vector<int>{0, 2});
  g.add_comm(NodeKind::kBcast, ok, 0);
  g.seal();
  EXPECT_NO_THROW(g.validate());
}

/// The whole-graph scan the rank index replaced, kept as the schedule
/// oracle: every rank visits every node and filters by ownership.
void reference_run(const TaskGraph& graph, int rank, Scheduler schedule,
                   int window, const taskgraph::ExecHooks& hooks) {
  const auto& nodes = graph.nodes();
  const auto member = [&graph, rank](const TaskNode& n) {
    const auto owners = graph.owners(n.id);
    return std::find(owners.begin(), owners.end(), rank) != owners.end();
  };
  if (schedule == Scheduler::kEager) {
    for (std::size_t id = 0; id < nodes.size(); ++id) {
      const TaskNode& n = nodes[id];
      if (n.dropped) continue;
      if (n.is_comm()) {
        if (member(n)) hooks.run_comm(n);
        continue;
      }
      if (n.owner != rank) continue;
      if (n.kind == NodeKind::kGemm) {
        std::size_t count = 1;
        while (id + count < nodes.size() &&
               nodes[id + count].kind == NodeKind::kGemm &&
               nodes[id + count].payload == n.payload) {
          ++count;
        }
        hooks.run_fused(n, static_cast<int>(count));
        id += count - 1;
        continue;
      }
      hooks.run_local(n);
    }
    return;
  }

  std::vector<int> comms;
  for (const TaskNode& n : nodes) {
    if (!n.dropped && n.is_comm() && member(n)) comms.push_back(n.id);
  }
  const std::size_t depth = window <= 0
                                ? std::numeric_limits<std::size_t>::max()
                                : static_cast<std::size_t>(window);
  std::deque<sgmpi::Request> pending;
  std::size_t next_post = 0, next_complete = 0;
  const auto post_one = [&] {
    const TaskNode& n = nodes[static_cast<std::size_t>(comms[next_post++])];
    pending.push_back(hooks.post_comm(n));
  };
  const auto top_up = [&] {
    while (next_post < comms.size() && pending.size() < depth) post_one();
  };
  const auto complete_next = [&] {
    while (next_post <= next_complete) post_one();
    const int id = comms[next_complete++];
    sgmpi::Request r = std::move(pending.front());
    pending.pop_front();
    hooks.complete_comm(nodes[static_cast<std::size_t>(id)], r);
    top_up();
    return id;
  };

  std::vector<int> npred(nodes.size(), 0);
  std::set<int> ready;
  std::size_t nlocal = 0;
  for (const TaskNode& n : nodes) {
    if (n.dropped || n.is_comm() || n.owner != rank) continue;
    ++nlocal;
    int cnt = 0;
    for (int p : graph.preds(n.id)) {
      const TaskNode& pn = nodes[static_cast<std::size_t>(p)];
      if (pn.dropped) continue;
      if (pn.is_comm() ? member(pn) : pn.owner == rank) ++cnt;
    }
    npred[static_cast<std::size_t>(n.id)] = cnt;
    if (cnt == 0) ready.insert(n.id);
  }
  const auto finish = [&](int id) {
    for (int s : graph.succs(id)) {
      const TaskNode& sn = nodes[static_cast<std::size_t>(s)];
      if (sn.dropped || sn.is_comm() || sn.owner != rank) continue;
      if (--npred[static_cast<std::size_t>(s)] == 0) ready.insert(s);
    }
  };
  top_up();
  std::size_t executed = 0;
  while (executed < nlocal || next_complete < comms.size()) {
    if (!ready.empty()) {
      const int id = *ready.begin();
      ready.erase(ready.begin());
      hooks.run_local(nodes[static_cast<std::size_t>(id)]);
      ++executed;
      finish(id);
      continue;
    }
    ASSERT_LT(next_complete, comms.size()) << "reference deadlock";
    finish(complete_next());
  }
}

TEST(RankIndex, ScheduleMatchesWholeGraphScan) {
  for (const NamedGraph& ng : graphs_under_test()) {
    for (const Scheduler schedule :
         {Scheduler::kEager, Scheduler::kTaskGraph}) {
      for (const int window : {0, 1, 2}) {
        for (int r : graph_ranks(ng.graph)) {
          std::vector<std::string> expect, got;
          reference_run(ng.graph, r, schedule, window,
                        recording_hooks(expect));
          taskgraph::run_graph(ng.graph, r, schedule, window,
                               recording_hooks(got));
          EXPECT_EQ(got, expect)
              << ng.name << " " << to_string(schedule) << " window "
              << window << " rank " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace summagen::core

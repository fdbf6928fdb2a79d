// Task-graph structure and scheduling contracts (src/core/taskgraph/):
//
//  * the SummaGen graph is acyclic, every broadcast feeds at least one
//    DGEMM chunk, and chunk dependencies reproduce the plan's
//    prefix-of-comm_ops contract in ascending collective order;
//  * recovery pruning drops exactly what the historical row/column
//    liveness rule dropped, with node ids untouched;
//  * the SUMMA / 2.5D step chains have the expected shape (replication
//    heads, write-after-read workspace edges, reduction tail);
//  * both schedulers produce bit-identical numeric results and
//    identical counters on the chain graphs (SUMMA and 2.5D).
#include "src/core/taskgraph/taskgraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/core/plan.hpp"
#include "src/core/summa.hpp"
#include "src/core/summa25d.hpp"
#include "src/device/platform.hpp"
#include "src/partition/areas.hpp"
#include "src/partition/shapes.hpp"
#include "src/util/rng.hpp"

namespace summagen::core {
namespace {

using taskgraph::NodeKind;
using taskgraph::TaskGraph;
using taskgraph::TaskNode;

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
  for (int p : n.preds) {
    if (g.node(p).is_comm()) dep = std::max(dep, p);
  }
  return dep;
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
    // |copy_ops| + i is plan comm op i, over the same subgroup.
    for (std::size_t i = 0; i < plan.copy_ops.size(); ++i) {
      EXPECT_EQ(g.node(static_cast<int>(i)).kind, NodeKind::kCopy);
    }
    for (std::size_t i = 0; i < plan.comm_ops.size(); ++i) {
      const TaskNode& n =
          g.node(static_cast<int>(plan.copy_ops.size() + i));
      EXPECT_EQ(n.kind, NodeKind::kBcast);
      EXPECT_EQ(n.payload, static_cast<int>(i));
      EXPECT_EQ(n.owners, plan.comm_ops[i].owners);
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
        const bool feeds_gemm = std::any_of(
            n.succs.begin(), n.succs.end(),
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
        for (int p : n.preds) {
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
  TaskGraph g;
  const int a = g.add_local(NodeKind::kCopy, 0, 0);
  const int b = g.add_local(NodeKind::kGemm, 0, 1);
  g.add_dep(a, b);
  EXPECT_THROW(g.add_dep(a, b), std::logic_error);   // duplicate
  EXPECT_THROW(g.add_dep(a, a), std::logic_error);   // self edge
  EXPECT_THROW(g.add_dep(a, 99), std::logic_error);  // unknown node
  EXPECT_NO_THROW(g.validate());
  g.add_dep(b, a);  // structurally fine, semantically a cycle
  EXPECT_THROW(g.validate(), std::logic_error);
  EXPECT_THROW(g.add_comm(NodeKind::kBcast, {}, 0), std::logic_error);
}

TEST(StepChainGraph, SummaShape) {
  const std::vector<int> row = {0, 1};
  const std::vector<int> col = {0, 2};
  const TaskGraph g = taskgraph::build_summa_graph(3, /*rank=*/0, row, col);
  ASSERT_EQ(g.size(), 9u);  // (a, b, gemm) per step
  for (int s = 0; s < 3; ++s) {
    const TaskNode& a = g.node(3 * s);
    const TaskNode& b = g.node(3 * s + 1);
    const TaskNode& gm = g.node(3 * s + 2);
    EXPECT_EQ(a.kind, NodeKind::kBcast);
    EXPECT_EQ(a.owners, row);
    EXPECT_EQ(b.owners, col);
    EXPECT_EQ(gm.kind, NodeKind::kGemm);
    EXPECT_EQ(a.payload, s);
    EXPECT_EQ(gm.payload, s);
    // The GEMM reads both panels; the next step's panels write-after-read
    // the shared workspaces, so they wait for this GEMM.
    std::vector<int> preds = gm.preds;
    std::sort(preds.begin(), preds.end());
    if (s == 0) {
      EXPECT_EQ(preds, (std::vector<int>{a.id, b.id}));
    } else {
      EXPECT_EQ(preds, (std::vector<int>{g.node(3 * s - 1).id, a.id, b.id}));
      EXPECT_TRUE(std::count(a.preds.begin(), a.preds.end(), 3 * s - 1));
      EXPECT_TRUE(std::count(b.preds.begin(), b.preds.end(), 3 * s - 1));
    }
  }
}

TEST(StepChainGraph, TrivialAxisBecomesLocalPack) {
  const TaskGraph g =
      taskgraph::build_summa_graph(2, /*rank=*/3, {3}, {1, 3});
  for (int s = 0; s < 2; ++s) {
    const TaskNode& a = g.node(3 * s);
    EXPECT_EQ(a.kind, NodeKind::kPack);
    EXPECT_FALSE(a.is_comm());
    EXPECT_EQ(a.owner, 3);
    EXPECT_EQ(g.node(3 * s + 1).kind, NodeKind::kBcast);
  }
}

TEST(StepChainGraph, Summa25dAddsReplicationAndReduction) {
  const std::vector<int> row = {0, 1};
  const std::vector<int> col = {0, 2};
  const std::vector<int> stack = {0, 4};
  const TaskGraph g =
      taskgraph::build_summa25d_graph(2, /*rank=*/0, row, col, stack);
  ASSERT_EQ(g.size(), 2u + 6u + 1u);
  const TaskNode& rep_a = g.node(0);
  const TaskNode& rep_b = g.node(1);
  const TaskNode& red = g.node(static_cast<int>(g.size()) - 1);
  EXPECT_EQ(rep_a.kind, NodeKind::kBcast);
  EXPECT_EQ(rep_a.payload, -1);
  EXPECT_EQ(rep_a.owners, stack);
  EXPECT_EQ(rep_b.payload, -1);
  EXPECT_EQ(red.kind, NodeKind::kReduce);
  EXPECT_EQ(red.payload, -2);
  EXPECT_EQ(red.owners, stack);
  // Depth-communicator collective order: A replication, B replication,
  // then (after the last GEMM) the reduction.
  EXPECT_EQ(rep_a.succs.front(), rep_b.id);
  EXPECT_TRUE(std::count(rep_b.succs.begin(), rep_b.succs.end(), 3));
  ASSERT_EQ(red.preds.size(), 1u);
  EXPECT_EQ(g.node(red.preds.front()).kind, NodeKind::kGemm);
  EXPECT_EQ(g.node(red.preds.front()).payload, 1);
}

/// One numeric SUMMA run: gathered C plus every rank's report.
struct SummaOutcome {
  util::Matrix c;
  std::vector<SummaReport> reports;
};

SummaOutcome run_summa(std::int64_t n, SummaConfig config,
                       Scheduler scheduler) {
  config.scheduler = scheduler;
  const int p = config.pr * config.pc;
  const auto platform = device::Platform::homogeneous(p);
  const auto processors = platform.processors();
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, util::derive_seed(29, 1));
  util::fill_random(b, util::derive_seed(29, 2));
  std::vector<std::unique_ptr<SummaLocalData>> locals;
  for (int r = 0; r < p; ++r) {
    locals.push_back(std::make_unique<SummaLocalData>(n, config, r, a, b));
  }
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  sgmpi::Runtime runtime(mpi_config);
  SummaOutcome out;
  out.reports.resize(static_cast<std::size_t>(p));
  runtime.run([&](sgmpi::Comm& world) {
    const std::size_t r = static_cast<std::size_t>(world.rank());
    out.reports[r] =
        summa_rank(world, n, config, processors[r], locals[r].get());
  });
  out.c = util::Matrix(n, n);
  for (int r = 0; r < p; ++r) {
    locals[static_cast<std::size_t>(r)]->gather_c(out.c);
  }
  return out;
}

TEST(StepChainSchedulerMatrix, SummaBitIdenticalAcrossSchedulers) {
  const std::int64_t n = 100;
  const SummaConfig config{2, 3, 32};
  const SummaOutcome eager = run_summa(n, config, Scheduler::kEager);
  const SummaOutcome other = run_summa(n, config, Scheduler::kTaskGraph);
  EXPECT_EQ(util::Matrix::max_abs_diff(eager.c, other.c), 0.0);
  for (std::size_t r = 0; r < eager.reports.size(); ++r) {
    EXPECT_EQ(eager.reports[r].steps, other.reports[r].steps);
    EXPECT_EQ(eager.reports[r].bcasts, other.reports[r].bcasts);
    EXPECT_EQ(eager.reports[r].bcast_bytes, other.reports[r].bcast_bytes);
    EXPECT_EQ(eager.reports[r].mpi_time_s, other.reports[r].mpi_time_s);
    EXPECT_EQ(eager.reports[r].flops, other.reports[r].flops);
  }
}

/// One numeric 2.5D run: layer-0 gathered C plus every rank's report.
struct Summa25dOutcome {
  util::Matrix c;
  std::vector<Summa25dReport> reports;
};

Summa25dOutcome run_25d(std::int64_t n, Summa25dConfig config,
                        Scheduler scheduler) {
  config.scheduler = scheduler;
  const int p = config.q * config.q * config.c;
  const auto platform = device::Platform::homogeneous(p);
  const auto processors = platform.processors();
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, util::derive_seed(31, 1));
  util::fill_random(b, util::derive_seed(31, 2));
  std::vector<std::unique_ptr<Summa25dLocalData>> locals;
  for (int r = 0; r < p; ++r) {
    locals.push_back(std::make_unique<Summa25dLocalData>(n, config, r, a, b));
  }
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  sgmpi::Runtime runtime(mpi_config);
  Summa25dOutcome out;
  out.reports.resize(static_cast<std::size_t>(p));
  runtime.run([&](sgmpi::Comm& world) {
    const std::size_t r = static_cast<std::size_t>(world.rank());
    out.reports[r] =
        summa25d_rank(world, n, config, processors[r], locals[r].get());
  });
  out.c = util::Matrix(n, n);
  for (int r = 0; r < config.q * config.q; ++r) {
    locals[static_cast<std::size_t>(r)]->gather_c(out.c);
  }
  return out;
}

TEST(StepChainSchedulerMatrix, Summa25dBitIdenticalAcrossSchedulers) {
  const std::int64_t n = 60;
  const Summa25dConfig config{2, 3, 7};  // nothing divides anything
  const Summa25dOutcome eager = run_25d(n, config, Scheduler::kEager);
  const Summa25dOutcome other = run_25d(n, config, Scheduler::kTaskGraph);
  EXPECT_EQ(util::Matrix::max_abs_diff(eager.c, other.c), 0.0);
  for (std::size_t r = 0; r < eager.reports.size(); ++r) {
    EXPECT_EQ(eager.reports[r].steps, other.reports[r].steps);
    EXPECT_EQ(eager.reports[r].bcasts, other.reports[r].bcasts);
    EXPECT_EQ(eager.reports[r].bcast_bytes, other.reports[r].bcast_bytes);
    EXPECT_EQ(eager.reports[r].replication_bytes,
              other.reports[r].replication_bytes);
    EXPECT_EQ(eager.reports[r].reduce_bytes, other.reports[r].reduce_bytes);
    EXPECT_EQ(eager.reports[r].mpi_time_s, other.reports[r].mpi_time_s);
  }
}

}  // namespace
}  // namespace summagen::core

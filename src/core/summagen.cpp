#include "src/core/summagen.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/plan.hpp"
#include "src/core/taskgraph/executor.hpp"
#include "src/core/taskgraph/taskgraph.hpp"
#include "src/pool/pool.hpp"
#include "src/util/accounting.hpp"
#include "src/util/buffer_pool.hpp"
#include "src/util/matrix_view.hpp"

namespace summagen::core {

const char* to_string(Scheduler scheduler) {
  switch (scheduler) {
    case Scheduler::kEager:
      return "eager";
    case Scheduler::kTaskGraph:
      return "taskgraph";
  }
  return "?";
}

Scheduler parse_scheduler(const std::string& name) {
  if (name == "eager") return Scheduler::kEager;
  if (name == "taskgraph") return Scheduler::kTaskGraph;
  throw std::invalid_argument("unknown scheduler '" + name +
                              "' (expected eager | taskgraph)");
}

namespace {

/// The rank-invariant (plan, graph) pair. Every rank derives the same
/// ExecutionPlan and TaskGraph from (spec, bcast_panel_rows) — build_plan
/// is deterministic — so the ranks of a run share one immutable copy
/// instead of each materialising its own. With thousands of rank fibers
/// alive at once, per-rank copies cost gigabytes; the shared pair
/// costs one rank's worth.
struct SharedSchedule {
  std::shared_ptr<const ExecutionPlan> plan;
  std::shared_ptr<const taskgraph::TaskGraph> graph;
};

/// A process-wide cache entry: the pair plus the key it was built from.
/// Ranks receive only the SharedSchedule handles — never a copy of the
/// key's PartitionSpec, which would cost O(p) per rank.
struct ScheduleEntry {
  partition::PartitionSpec spec;
  std::int64_t panel_rows = 0;
  SharedSchedule schedule;
};

std::mutex& schedule_mutex() {
  static std::mutex mu;
  return mu;
}

std::vector<ScheduleEntry>& schedule_cache() {
  static std::vector<ScheduleEntry>& cache = *[] {
    auto* storage = new std::vector<ScheduleEntry>();
    sgpool::Pool::add_quiescent_hook([storage] {
      std::lock_guard<std::mutex> lock(schedule_mutex());
      storage->clear();
    });
    return storage;
  }();
  return cache;
}

bool same_layout(const partition::PartitionSpec& a,
                 const partition::PartitionSpec& b) {
  return a.n == b.n && a.subplda == b.subplda && a.subpldb == b.subpldb &&
         a.subph == b.subph && a.subpw == b.subpw && a.subp == b.subp;
}

SharedSchedule shared_schedule(const partition::PartitionSpec& spec,
                               const SummaGenOptions& options) {
  // bcast_panel_rows is the only option the plan reads (plan.cpp).
  const std::int64_t panel_rows = options.bcast_panel_rows;
  std::lock_guard<std::mutex> lock(schedule_mutex());
  auto& cache = schedule_cache();
  for (const ScheduleEntry& entry : cache) {
    if (entry.panel_rows == panel_rows && same_layout(entry.spec, spec)) {
      util::record_sched_lookup(/*hit=*/true);
      return entry.schedule;
    }
  }
  util::record_sched_lookup(/*hit=*/false);
  ScheduleEntry entry;
  entry.spec = spec;
  entry.panel_rows = panel_rows;
  auto plan = std::make_shared<ExecutionPlan>(build_plan(spec, options));
  entry.schedule.graph = std::make_shared<const taskgraph::TaskGraph>(
      taskgraph::build_summagen_graph(spec, *plan));
  entry.schedule.plan = std::move(plan);
  // Entries are dropped at the pool's quiescent point (once per run);
  // recovery phases add one entry per re-partition. The FIFO cap covers
  // direct summagen_rank callers that never pass a quiescent point —
  // in-flight shared_ptrs keep evicted entries alive.
  constexpr std::size_t kMaxEntries = 16;
  if (cache.size() == kMaxEntries) cache.erase(cache.begin());
  cache.push_back(std::move(entry));
  return cache.back().schedule;
}

/// Per-rank geometry shared by every plan step executor. It holds the
/// rank's only copy of the row/column offset vectors; summagen_rank sizes
/// the WA/WB workspaces from them and then points `wa`/`wb` at the storage.
struct Frame {
  const partition::PartitionSpec& spec;
  LocalData* data;      ///< nullptr on the modeled plane
  util::MatrixView wa;  ///< my_rows x n workspace (empty on modeled plane)
  util::MatrixView wb;  ///< n x my_cols workspace (empty on modeled plane)
  std::vector<std::int64_t> roff;
  std::vector<std::int64_t> coff;
  std::int64_t wa_base = 0;  ///< first matrix row covered by WA
  std::int64_t wb_base = 0;  ///< first matrix column covered by WB

  Frame(const partition::PartitionSpec& spec_in, int rank, LocalData* data_in)
      : spec(spec_in),
        data(data_in),
        roff(spec_in.row_offsets()),
        coff(spec_in.col_offsets()) {
    wa_base = roff[static_cast<std::size_t>(spec.row_span(rank).first)];
    wb_base = coff[static_cast<std::size_t>(spec.col_span(rank).first)];
  }

  /// Destination of panel rows [op.p0, op.p0 + op.rows) of `op`'s payload
  /// inside WA (A ops) or WB (B ops).
  util::MatrixView dest(const CommOp& op) const {
    if (op.is_a) {
      const std::int64_t row0 =
          roff[static_cast<std::size_t>(op.bi)] - wa_base + op.p0;
      return wa.subview(row0, coff[static_cast<std::size_t>(op.bj)], op.rows,
                        op.width);
    }
    const std::int64_t col0 =
        coff[static_cast<std::size_t>(op.bj)] - wb_base;
    return wb.subview(roff[static_cast<std::size_t>(op.bi)] + op.p0, col0,
                      op.rows, op.width);
  }

  /// The owner's payload for `op`, viewed in place inside the global
  /// operand (panel rows [op.p0, op.p0 + op.rows) of the owned part).
  util::ConstMatrixView owned_src(const CommOp& op) const {
    const util::ConstMatrixView part =
        op.is_a ? data->a_part(op.bi, op.bj) : data->b_part(op.bi, op.bj);
    return part.subview(op.p0, 0, op.rows, op.width);
  }
};

/// Executes a single-owner local copy (zero virtual cost).
void exec_copy(const Frame& frame, const CopyOp& op) {
  if (frame.data == nullptr) return;
  const std::int64_t h = frame.spec.subph[static_cast<std::size_t>(op.bi)];
  const std::int64_t w = frame.spec.subpw[static_cast<std::size_t>(op.bj)];
  if (op.is_a) {
    const std::int64_t row0 =
        frame.roff[static_cast<std::size_t>(op.bi)] - frame.wa_base;
    util::copy_view(frame.data->a_part(op.bi, op.bj),
                    frame.wa.subview(
                        row0, frame.coff[static_cast<std::size_t>(op.bj)], h,
                        w));
  } else {
    const std::int64_t col0 =
        frame.coff[static_cast<std::size_t>(op.bj)] - frame.wb_base;
    util::copy_view(frame.data->b_part(op.bi, op.bj),
                    frame.wb.subview(
                        frame.roff[static_cast<std::size_t>(op.bi)], col0, h,
                        w));
  }
}

/// Executes one local DGEMM of the plan. When `ft` carries a drift profile
/// the modeled time additionally scales by the drift factor sampled at the
/// quantum's start; `obs` (optional) receives the step's predicted
/// (pre-drift) and observed durations for the drift detector.
void exec_gemm(sgmpi::Comm& world, const Frame& frame,
               const device::AbstractProcessor& ap, const GemmOp& g,
               bool contended, RankReport& report, const FtContext* ft,
               trace::StepSample* obs) {
  const partition::PartitionSpec& spec = frame.spec;
  const std::int64_t h = spec.subph[static_cast<std::size_t>(g.bi)];
  const std::int64_t w = spec.subpw[static_cast<std::size_t>(g.bj)];

  device::KernelCost cost;
  if (frame.data == nullptr) {
    cost = ap.kernel_cost(h, w, spec.n, contended);
  } else {
    const partition::Rect& cr = frame.data->c_rect();
    const std::int64_t wa_row0 =
        frame.roff[static_cast<std::size_t>(g.bi)] - frame.wa_base;
    const std::int64_t wb_col0 =
        frame.coff[static_cast<std::size_t>(g.bj)] - frame.wb_base;
    const util::MatrixView cv = frame.data->c();
    double* cptr = cv.data() +
                   (frame.roff[static_cast<std::size_t>(g.bi)] - cr.row0) *
                       cv.ld() +
                   (frame.coff[static_cast<std::size_t>(g.bj)] - cr.col0);
    cost = ap.run_gemm(h, w, spec.n, frame.wa.row(wa_row0), frame.wa.ld(),
                       frame.wb.data() + wb_col0, frame.wb.ld(), cptr,
                       cv.ld(), contended);
  }

  // A planned rank-slowdown fault scales the device's modeled time; the
  // factor is exactly 1.0 with no fault plan, keeping the charge
  // bit-identical.
  const double slow = world.compute_slowdown();
  cost.compute_s *= slow;
  cost.transfer_s *= slow;

  auto& clk = world.clock();
  const double t0 = clk.now();
  // Live drift stretches the modeled quantum on top of the static model
  // (slowdown faults included); the detector compares the two.
  const double drift = ft != nullptr && ft->drift_factor
                           ? ft->drift_factor(t0)
                           : 1.0;
  if (obs != nullptr) {
    obs->predicted_s = cost.total_s();
    obs->observed_s = cost.total_s() * drift;
    obs->vtime = t0;
  }
  cost.compute_s *= drift;
  cost.transfer_s *= drift;
  clk.advance_compute(cost.compute_s);
  if (world.events().enabled()) {
    world.events().record({world.world_rank(), trace::EventKind::kCompute,
                           t0, clk.now(), 0, blas::gemm_flops(h, w, spec.n),
                           "subp(" + std::to_string(g.bi) + "," +
                               std::to_string(g.bj) + ")"});
  }
  if (cost.transfer_s > 0.0) {
    // Host<->device staging: part of the kernel (and of Fig. 6b's
    // computation time), but drawing communication power.
    const double t1 = clk.now();
    clk.advance_compute(cost.transfer_s);
    if (world.events().enabled()) {
      world.events().record({world.world_rank(), trace::EventKind::kTransfer,
                             t1, clk.now(), cost.transferred_bytes, 0,
                             "staging"});
    }
  }

  ++report.gemm_calls;
  report.flops += blas::gemm_flops(h, w, spec.n);
  report.kernel_compute_s += cost.compute_s;
  report.kernel_transfer_s += cost.transfer_s;
}

/// Executes one k-chunk of a plan DGEMM (chunk-granular schedulers):
/// numerically C += A[:, k0:k1) * B[k0:k1, :]. The chunk is charged its
/// pro-rata share of the *whole* kernel invocation's modeled cost `full` —
/// the chunks are slices of one kernel call, so their total matches the
/// eager scheduler's charge exactly and the split changes what the
/// broadcasts can hide, never the computation time itself.
void exec_gemm_chunk(sgmpi::Comm& world, const Frame& frame,
                     const device::AbstractProcessor& ap, const GemmOp& g,
                     const GemmChunk& ch, const device::KernelCost& full,
                     bool contended, RankReport& report, const FtContext* ft,
                     trace::StepSample* obs) {
  const partition::PartitionSpec& spec = frame.spec;
  const std::int64_t h = spec.subph[static_cast<std::size_t>(g.bi)];
  const std::int64_t w = spec.subpw[static_cast<std::size_t>(g.bj)];
  const std::int64_t kc = ch.k1 - ch.k0;

  if (frame.data != nullptr) {
    const partition::Rect& cr = frame.data->c_rect();
    const std::int64_t wa_row0 =
        frame.roff[static_cast<std::size_t>(g.bi)] - frame.wa_base;
    const std::int64_t wb_col0 =
        frame.coff[static_cast<std::size_t>(g.bj)] - frame.wb_base;
    const util::MatrixView cv = frame.data->c();
    double* cptr = cv.data() +
                   (frame.roff[static_cast<std::size_t>(g.bi)] - cr.row0) *
                       cv.ld() +
                   (frame.coff[static_cast<std::size_t>(g.bj)] - cr.col0);
    // run_gemm accumulates (beta = 1); its returned cost describes a
    // standalone (h, w, kc) kernel and is discarded in favour of `full`'s
    // pro-rata share.
    ap.run_gemm(h, w, kc, frame.wa.row(wa_row0) + ch.k0, frame.wa.ld(),
                frame.wb.row(ch.k0) + wb_col0, frame.wb.ld(), cptr, cv.ld(),
                contended);
  }

  const double share =
      static_cast<double>(kc) / static_cast<double>(spec.n);
  const double slow = world.compute_slowdown();
  auto& clk = world.clock();
  const double t0 = clk.now();
  const double drift = ft != nullptr && ft->drift_factor
                           ? ft->drift_factor(t0)
                           : 1.0;
  if (obs != nullptr) {
    obs->predicted_s = (full.compute_s + full.transfer_s) * share * slow;
    obs->observed_s = obs->predicted_s * drift;
    obs->vtime = t0;
  }
  const double compute_s = full.compute_s * share * slow * drift;
  const double transfer_s = full.transfer_s * share * slow * drift;
  clk.advance_compute(compute_s);
  if (world.events().enabled()) {
    world.events().record(
        {world.world_rank(), trace::EventKind::kCompute, t0, clk.now(), 0,
         blas::gemm_flops(h, w, kc),
         "subp(" + std::to_string(g.bi) + "," + std::to_string(g.bj) +
             ")[" + std::to_string(ch.k0) + ":" + std::to_string(ch.k1) +
             ")"});
  }
  if (transfer_s > 0.0) {
    const double t1 = clk.now();
    clk.advance_compute(transfer_s);
    if (world.events().enabled()) {
      world.events().record({world.world_rank(), trace::EventKind::kTransfer,
                             t1, clk.now(),
                             full.transferred_bytes * kc / spec.n, 0,
                             "staging"});
    }
  }

  ++report.gemm_calls;
  report.flops += blas::gemm_flops(h, w, kc);
  report.kernel_compute_s += compute_s;
  report.kernel_transfer_s += transfer_s;
}

}  // namespace

RankReport summagen_rank(sgmpi::Comm& world,
                         const partition::PartitionSpec& spec,
                         const device::AbstractProcessor& ap, LocalData* data,
                         bool contended, const SummaGenOptions& options,
                         const FtContext* ft) {
  spec.validate(world.size());
  if (data != nullptr && !data->numeric()) {
    throw std::invalid_argument(
        "summagen_rank: pass nullptr for the modeled plane");
  }
  const int rank = world.rank();
  Frame frame(spec, rank, data);

  RankReport report;

  // The WA/WB workspaces come from the process-wide buffer pool and are
  // deliberately not zeroed: the plan writes every region a DGEMM reads
  // (all cells of my block row land in WA and of my block column in WB
  // before any chunk touches them) — including under recovery filtering,
  // which keeps an A/B op whenever any surviving DGEMM reads its
  // row/column.
  util::PooledBuffer wa_store, wb_store;
  if (data != nullptr) {
    const auto [myi, block_lda] = spec.row_span(rank);
    const auto [myj, block_ldb] = spec.col_span(rank);
    const std::int64_t wa_rows =
        frame.roff[static_cast<std::size_t>(myi + block_lda)] - frame.wa_base;
    const std::int64_t wb_cols =
        frame.coff[static_cast<std::size_t>(myj + block_ldb)] - frame.wb_base;
    wa_store = util::BufferPool::instance().acquire(wa_rows * spec.n);
    wb_store = util::BufferPool::instance().acquire(spec.n * wb_cols);
    frame.wa = util::MatrixView(wa_store.data(), wa_rows, spec.n, spec.n);
    frame.wb = util::MatrixView(wb_store.data(), spec.n, wb_cols, wb_cols);
  }

  // Fetch the rank-invariant plan + dependency task graph (shared across
  // ranks — see SharedSchedule) and — on recovery phases — prune a private
  // copy of the subgraph that already ran. Node ids survive pruning, so
  // every scheduler remains a legal schedule of the un-run subgraph;
  // recovery is re-scheduling, not a retry path.
  const SharedSchedule sched = shared_schedule(spec, options);
  const ExecutionPlan& plan = *sched.plan;
  taskgraph::TaskGraph pruned;
  const taskgraph::TaskGraph* graph = sched.graph.get();
  if (ft != nullptr && ft->done != nullptr && !ft->done->empty()) {
    pruned = *sched.graph;
    taskgraph::prune_completed(pruned, plan, *ft->done);
    graph = &pruned;
  }

  const double hidden0 = world.clock().hidden_comm_seconds();

  // Whole-kernel costs per GemmOp, computed on first use: chunk nodes are
  // charged pro-rata shares of the single kernel invocation the eager
  // schedule would make, so the total computation time is
  // schedule-invariant. Sparse: a rank only ever prices its own GemmOps,
  // so a dense per-rank vector over all of them would be O(p^2) process-
  // wide at large p.
  std::map<std::size_t, device::KernelCost> full;
  auto full_cost = [&](std::size_t gi) -> const device::KernelCost& {
    auto it = full.find(gi);
    if (it == full.end()) {
      const GemmOp& g = plan.gemm_ops[gi];
      it = full.emplace(gi, ap.kernel_cost(
                                spec.subph[static_cast<std::size_t>(g.bi)],
                                spec.subpw[static_cast<std::size_t>(g.bj)],
                                spec.n, contended))
               .first;
    }
    return it->second;
  };

  // Subgroup communicators of posted-but-uncompleted broadcasts, FIFO in
  // posting order — the executor completes in that same order.
  std::deque<sgmpi::Comm> posted_groups;

  // Set when the drift detector (ft->on_step) confirms: the rank sheds its
  // remaining compute — no kernel, no clock charge, no completion snapshot
  // — but still executes its full communication schedule, so every peer's
  // collectives complete against live payloads. The kDrift event is raised
  // only after the graph finishes and surfaces to peers at the ft_commit
  // gate; the shed cells redistribute in the next phase.
  bool shed = false;

  taskgraph::ExecHooks hooks;
  hooks.run_local = [&](const taskgraph::TaskNode& node) {
    if (node.kind == taskgraph::NodeKind::kCopy) {
      exec_copy(frame, plan.copy_ops[static_cast<std::size_t>(node.payload)]);
      return;
    }
    if (shed) return;
    const GemmOp& g = plan.gemm_ops[static_cast<std::size_t>(node.payload)];
    const GemmChunk& ch = g.chunks[static_cast<std::size_t>(node.aux)];
    trace::StepSample obs;
    exec_gemm_chunk(world, frame, ap, g, ch,
                    full_cost(static_cast<std::size_t>(node.payload)),
                    contended, report, ft, &obs);
    world.fault_check();
    if (node.aux + 1 == static_cast<int>(g.chunks.size()) && ft != nullptr &&
        ft->on_gemm_done) {
      ft->on_gemm_done(g.bi, g.bj);
    }
    if (ft != nullptr && ft->on_step && ft->on_step(obs)) shed = true;
  };
  // kEager fuses each chunk chain into the historical single whole-op
  // kernel call — eager numeric results and virtual timing stay exact.
  hooks.run_fused = [&](const taskgraph::TaskNode& node, int /*nchunks*/) {
    if (shed) return;
    const GemmOp& g = plan.gemm_ops[static_cast<std::size_t>(node.payload)];
    trace::StepSample obs;
    exec_gemm(world, frame, ap, g, contended, report, ft, &obs);
    // The cell is complete: snapshot it before polling for faults, so a
    // crash surfacing at this boundary never re-executes finished work.
    if (ft != nullptr && ft->on_gemm_done) ft->on_gemm_done(g.bi, g.bj);
    world.fault_check();
    if (ft != nullptr && ft->on_step && ft->on_step(obs)) shed = true;
  };
  hooks.run_comm = [&](const taskgraph::TaskNode& node) {
    const CommOp& op = plan.comm_ops[static_cast<std::size_t>(node.payload)];
    sgmpi::Comm group = world.subgroup(op.owners);
    if (frame.data == nullptr) {
      report.mpi_time_s += group.bcast_bytes(nullptr, op.bytes, op.root);
    } else if (op.owner == rank) {
      // The owner broadcasts its sub-partition viewed in place inside the
      // global operand; the transport lands its own copy in WA/WB too.
      report.mpi_time_s +=
          group.bcast_panel(frame.owned_src(op), frame.dest(op), op.root);
    } else {
      // Receivers copy straight from the root's view into WA/WB — no
      // contiguous staging buffer on either side.
      report.mpi_time_s += group.bcast_panel({}, frame.dest(op), op.root);
    }
    ++report.bcasts;
    report.bcast_bytes += op.bytes;
  };
  hooks.post_comm = [&](const taskgraph::TaskNode& node) {
    const CommOp& op = plan.comm_ops[static_cast<std::size_t>(node.payload)];
    sgmpi::Comm group = world.subgroup(op.owners);
    sgmpi::Request request;
    if (frame.data == nullptr) {
      request = group.ibcast_bytes(nullptr, op.bytes, op.root);
    } else if (op.owner == rank) {
      request =
          group.ibcast_panel(frame.owned_src(op), frame.dest(op), op.root);
    } else {
      request = group.ibcast_panel({}, frame.dest(op), op.root);
    }
    ++report.bcasts;
    report.bcast_bytes += op.bytes;
    posted_groups.push_back(std::move(group));
    return request;
  };
  hooks.complete_comm = [&](const taskgraph::TaskNode& /*node*/,
                            sgmpi::Request& request) {
    sgmpi::Comm group = std::move(posted_groups.front());
    posted_groups.pop_front();
    // The wait itself lands the panel in WA/WB (receivers gather from the
    // root's view, the root stores its own window).
    report.mpi_time_s += group.wait(request);
  };

  taskgraph::run_graph(*graph, rank, options.scheduler, options.overlap_depth,
                       hooks);

  // With the communication schedule fully executed (no peer is mid-
  // collective against this rank's buffers), a confirmed drift unwinds via
  // the standard fault path: peers see kDrift at the ft_commit gate.
  if (shed) world.raise_drift();

  report.hidden_comm_s = world.clock().hidden_comm_seconds() - hidden0;
  return report;
}

}  // namespace summagen::core

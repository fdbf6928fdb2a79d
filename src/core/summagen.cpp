#include "src/core/summagen.hpp"

#include <algorithm>
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
/// A recovery phase's entry holds the graph pruned by the phase's done
/// cells (sharing the plan of its layout's unpruned entry), so the ranks
/// of a phase prune once between them, not once each. Ranks receive only
/// the SharedSchedule handles — never a copy of the key's PartitionSpec
/// or done set, which would cost O(p) per rank.
struct ScheduleEntry {
  partition::PartitionSpec spec;
  std::int64_t panel_rows = 0;
  std::set<std::pair<int, int>> done;  ///< empty: the unpruned graph
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

/// The cached entry for (spec, panel_rows, done), or null. Caller holds
/// schedule_mutex().
const ScheduleEntry* find_entry(const partition::PartitionSpec& spec,
                                std::int64_t panel_rows,
                                const std::set<std::pair<int, int>>& done) {
  for (const ScheduleEntry& entry : schedule_cache()) {
    if (entry.panel_rows == panel_rows && entry.done == done &&
        same_layout(entry.spec, spec)) {
      return &entry;
    }
  }
  return nullptr;
}

/// Appends an entry. Caller holds schedule_mutex().
const ScheduleEntry& insert_entry(ScheduleEntry entry) {
  // Entries are dropped at the pool's quiescent point (once per run);
  // recovery phases add up to two entries per re-partition. The FIFO cap
  // covers direct summagen_rank callers that never pass a quiescent
  // point — in-flight shared_ptrs keep evicted entries alive.
  constexpr std::size_t kMaxEntries = 16;
  auto& cache = schedule_cache();
  if (cache.size() == kMaxEntries) cache.erase(cache.begin());
  cache.push_back(std::move(entry));
  return cache.back();
}

/// The shared schedule of `spec` under `options`, pruned by `done` (null
/// or empty: unpruned). The first rank to ask builds it under
/// schedule_mutex(); every later rank of the run or phase reads the same
/// immutable copy.
SharedSchedule shared_schedule(const partition::PartitionSpec& spec,
                               const SummaGenOptions& options,
                               const std::set<std::pair<int, int>>* done) {
  // bcast_panel_rows is the only option the plan reads (plan.cpp).
  const std::int64_t panel_rows = options.bcast_panel_rows;
  static const std::set<std::pair<int, int>> kNone;
  const std::set<std::pair<int, int>>& cells = done != nullptr ? *done : kNone;
  std::lock_guard<std::mutex> lock(schedule_mutex());
  if (const ScheduleEntry* hit = find_entry(spec, panel_rows, cells)) {
    util::record_sched_lookup(/*hit=*/true);
    return hit->schedule;
  }
  util::record_sched_lookup(/*hit=*/false);
  const ScheduleEntry* base = find_entry(spec, panel_rows, kNone);
  if (base == nullptr) {
    ScheduleEntry entry;
    entry.spec = spec;
    entry.panel_rows = panel_rows;
    auto plan = std::make_shared<ExecutionPlan>(build_plan(spec, options));
    entry.schedule.graph = std::make_shared<const taskgraph::TaskGraph>(
        taskgraph::build_summagen_graph(spec, *plan));
    entry.schedule.plan = std::move(plan);
    base = &insert_entry(std::move(entry));
  }
  if (cells.empty()) return base->schedule;
  ScheduleEntry pruned;
  pruned.spec = spec;
  pruned.panel_rows = panel_rows;
  pruned.done = cells;
  pruned.schedule.plan = base->schedule.plan;
  auto graph = std::make_shared<taskgraph::TaskGraph>(*base->schedule.graph);
  taskgraph::prune_completed(*graph, *pruned.schedule.plan, cells);
  pruned.schedule.graph = std::move(graph);
  return insert_entry(std::move(pruned)).schedule;
}

/// Per-rank geometry shared by every plan step executor: the row/column
/// offsets the shared plan keeps once and, on the numeric plane, the
/// rank's store (RunStores).
struct Frame {
  const partition::PartitionSpec& spec;
  LocalData* data;  ///< nullptr on the modeled plane
  const std::vector<std::int64_t>& roff;  ///< ExecutionPlan::roff
  const std::vector<std::int64_t>& coff;  ///< ExecutionPlan::coff

  Frame(const partition::PartitionSpec& spec_in, const ExecutionPlan& plan,
        LocalData* data_in)
      : spec(spec_in), data(data_in), roff(plan.roff), coff(plan.coff) {}

  /// Where a receiver lands panel rows [op.p0, op.p0 + op.rows) of `op`'s
  /// payload: its receive slot for the block.
  util::MatrixView dest(const CommOp& op) const {
    const util::MatrixView slot =
        op.is_a ? data->a_slot(op.bi, op.bj) : data->b_slot(op.bi, op.bj);
    return slot.subview(op.p0, 0, op.rows, op.width);
  }

  /// The owner's payload for `op`, viewed in place inside the global
  /// operand (panel rows [op.p0, op.p0 + op.rows) of the owned part).
  util::ConstMatrixView owned_src(const CommOp& op) const {
    const util::ConstMatrixView part =
        op.is_a ? data->a_part(op.bi, op.bj) : data->b_part(op.bi, op.bj);
    return part.subview(op.p0, 0, op.rows, op.width);
  }

  /// Numerically C(g) += A(g.bi, [k0, k1)) * B([k0, k1), g.bj): one
  /// run_gemm per k-segment between consecutive A column-block and B
  /// row-block boundaries, each reading its blocks where they live
  /// (LocalData::a_block / b_block). Every kernel accumulates each C
  /// element in ascending k with exact stores between calls, so the split
  /// changes no bit of C. run_gemm's costs price standalone segment
  /// kernels and are dropped: the caller charges the modeled kernel.
  void run_segments(const device::AbstractProcessor& ap, const GemmOp& g,
                    std::int64_t k0, std::int64_t k1, bool contended) const {
    const std::int64_t h = spec.subph[static_cast<std::size_t>(g.bi)];
    const std::int64_t w = spec.subpw[static_cast<std::size_t>(g.bj)];
    const partition::Rect& cr = data->c_rect();
    const util::MatrixView cv = data->c();
    double* cptr =
        cv.data() + (roff[static_cast<std::size_t>(g.bi)] - cr.row0) * cv.ld() +
        (coff[static_cast<std::size_t>(g.bj)] - cr.col0);
    std::size_t cb = 0;  // A column block holding k
    std::size_t rb = 0;  // B row block holding k
    for (std::int64_t k = k0; k < k1;) {
      while (coff[cb + 1] <= k) ++cb;
      while (roff[rb + 1] <= k) ++rb;
      const std::int64_t end = std::min({k1, coff[cb + 1], roff[rb + 1]});
      const util::ConstMatrixView a =
          data->a_block(g.bi, static_cast<int>(cb));
      const util::ConstMatrixView b =
          data->b_block(static_cast<int>(rb), g.bj);
      ap.run_gemm(h, w, end - k, a.data() + (k - coff[cb]), a.ld(),
                  b.row(k - roff[rb]), b.ld(), cptr, cv.ld(), contended);
      k = end;
    }
  }
};

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

  // The whole (h, w, n) kernel is charged once, however many segments
  // compute it.
  device::KernelCost cost = ap.kernel_cost(h, w, spec.n, contended);
  if (frame.data != nullptr) {
    frame.run_segments(ap, g, 0, spec.n, contended);
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
    frame.run_segments(ap, g, ch.k0, ch.k1, contended);
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
  if (data != nullptr && data->workspace_released()) {
    throw std::invalid_argument(
        "summagen_rank: the rank's store has no receive slots (its "
        "workspace was released)");
  }
  const int rank = world.rank();

  // Fetch the rank-invariant plan + dependency task graph (shared across
  // ranks — see SharedSchedule); on recovery phases the graph comes
  // pruned of the subgraph that already ran, once for all ranks of the
  // phase. Node ids survive pruning, so every scheduler remains a legal
  // schedule of the un-run subgraph; recovery is re-scheduling, not a
  // retry path.
  const SharedSchedule sched =
      shared_schedule(spec, options, ft != nullptr ? ft->done : nullptr);
  const ExecutionPlan& plan = *sched.plan;
  const taskgraph::TaskGraph& graph = *sched.graph;
  Frame frame(spec, plan, data);

  RankReport report;

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

  // This rank's subgroup communicators, one per owner group it belongs
  // to, resolved on first use. A rank sits on a handful of row and column
  // lines, so a linear scan finds the group, and world.subgroup — which
  // copies, sorts and checks the owner list, then looks it up under the
  // runtime's lock — runs once per group instead of once per broadcast.
  std::vector<std::pair<int, sgmpi::Comm>> comms;
  auto group_comm = [&](const taskgraph::TaskNode& node) -> sgmpi::Comm& {
    for (auto& [group, comm] : comms) {
      if (group == node.group) return comm;
    }
    comms.emplace_back(node.group,
                       world.subgroup(plan.groups[static_cast<std::size_t>(
                           node.group)]));
    return comms.back().second;
  };

  // Set when the drift detector (ft->on_step) confirms: the rank sheds its
  // remaining compute — no kernel, no clock charge, no completion snapshot
  // — but still executes its full communication schedule, so every peer's
  // collectives complete against live payloads. The kDrift event is raised
  // only after the graph finishes and surfaces to peers at the ft_commit
  // gate; the shed cells redistribute in the next phase.
  bool shed = false;

  taskgraph::ExecHooks hooks;
  hooks.run_local = [&](const taskgraph::TaskNode& node) {
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
    sgmpi::Comm& group = group_comm(node);
    if (frame.data == nullptr) {
      report.mpi_time_s += group.bcast_bytes(nullptr, op.bytes, op.root);
    } else if (op.owner == rank) {
      // The owner broadcasts its sub-partition viewed in place inside the
      // global operand and stores nothing: it reads the block in place.
      report.mpi_time_s += group.bcast_panel(frame.owned_src(op), {}, op.root);
    } else {
      // Receivers copy straight from the root's view into their slot — no
      // contiguous staging buffer on either side.
      report.mpi_time_s += group.bcast_panel({}, frame.dest(op), op.root);
    }
    ++report.bcasts;
    report.bcast_bytes += op.bytes;
  };
  hooks.post_comm = [&](const taskgraph::TaskNode& node) {
    const CommOp& op = plan.comm_ops[static_cast<std::size_t>(node.payload)];
    sgmpi::Comm& group = group_comm(node);
    sgmpi::Request request;
    if (frame.data == nullptr) {
      request = group.ibcast_bytes(nullptr, op.bytes, op.root);
    } else if (op.owner == rank) {
      request = group.ibcast_panel(frame.owned_src(op), {}, op.root);
    } else {
      request = group.ibcast_panel({}, frame.dest(op), op.root);
    }
    ++report.bcasts;
    report.bcast_bytes += op.bytes;
    return request;
  };
  hooks.complete_comm = [&](const taskgraph::TaskNode& node,
                            sgmpi::Request& request) {
    // The wait itself lands the panel in the receivers' slots (they
    // gather from the root's view).
    report.mpi_time_s += group_comm(node).wait(request);
  };

  taskgraph::run_graph(graph, rank, options.scheduler, options.overlap_depth,
                       hooks);

  // With the communication schedule fully executed (no peer is mid-
  // collective against this rank's buffers), a confirmed drift unwinds via
  // the standard fault path: peers see kDrift at the ft_commit gate.
  if (shed) world.raise_drift();

  report.hidden_comm_s = world.clock().hidden_comm_seconds() - hidden0;
  return report;
}

}  // namespace summagen::core

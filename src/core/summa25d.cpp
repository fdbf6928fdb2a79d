#include "src/core/summa25d.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/blas/pack_cache.hpp"
#include "src/core/panel_bcast.hpp"
#include "src/core/taskgraph/executor.hpp"
#include "src/core/taskgraph/taskgraph.hpp"
#include "src/util/buffer_pool.hpp"
#include "src/util/matrix_view.hpp"

namespace summagen::core {
namespace {

/// Scheduler constant folded into pack tags (keeps 2.5D keys disjoint from
/// plain SUMMA's even for identical geometry).
constexpr std::uint64_t kSumma25dPackTag = 0x53323544ull;  // "S25D"

void validate_config(std::int64_t n, const Summa25dConfig& config) {
  if (n <= 0) throw std::invalid_argument("summa25d: n <= 0");
  if (config.q < 1 || config.c < 1) {
    throw std::invalid_argument("summa25d: grid extents must be >= 1");
  }
  if (config.panel < 1) {
    throw std::invalid_argument("summa25d: panel width must be >= 1");
  }
  if (config.q > n || config.c > n) {
    throw std::invalid_argument("summa25d: grid larger than the matrix");
  }
}

SummaConfig layer_grid(const Summa25dConfig& config, std::int64_t panel) {
  SummaConfig grid;
  grid.pr = config.q;
  grid.pc = config.q;
  grid.panel = panel;
  return grid;
}

}  // namespace

Summa25dLocalData::Summa25dLocalData(std::int64_t n,
                                     const Summa25dConfig& config, int rank,
                                     const util::Matrix& a,
                                     const util::Matrix& b) {
  validate_config(n, config);
  const int per_layer = config.q * config.q;
  if (rank < 0 || rank >= per_layer * config.c) {
    throw std::invalid_argument("Summa25dLocalData: rank outside grid");
  }
  if (a.rows() != n || a.cols() != n || b.rows() != n || b.cols() != n) {
    throw std::invalid_argument("Summa25dLocalData: globals must be n x n");
  }
  const int layer = rank / per_layer;
  const int within = rank % per_layer;
  layer_zero_ = layer == 0;
  extent_ = summa_block(n, layer_grid(config, config.panel), within);
  if (layer_zero_) {
    a_ = util::extract_block(a, extent_.row0, extent_.col0, extent_.rows,
                             extent_.cols);
    b_ = util::extract_block(b, extent_.row0, extent_.col0, extent_.rows,
                             extent_.cols);
  } else {
    // Receive buffers for the replication broadcast. These must stay
    // owning Matrices: they are written by the depth bcast, not sourced
    // from the layer-0 globals this rank can see.
    a_ = util::Matrix(extent_.rows, extent_.cols);
    b_ = util::Matrix(extent_.rows, extent_.cols);
  }
  c_ = util::Matrix(extent_.rows, extent_.cols);
}

void Summa25dLocalData::gather_c(util::Matrix& c_global) const {
  if (!layer_zero_) {
    throw std::logic_error(
        "Summa25dLocalData: gather_c from a non-zero layer");
  }
  util::place_block(c_global, c_, extent_.row0, extent_.col0);
}

Summa25dReport summa25d_rank(sgmpi::Comm& world, std::int64_t n,
                             const Summa25dConfig& config,
                             const device::AbstractProcessor& ap,
                             Summa25dLocalData* data, bool contended) {
  validate_config(n, config);
  const int per_layer = config.q * config.q;
  if (world.size() != per_layer * config.c) {
    throw std::invalid_argument("summa25d: world size != q*q*c");
  }
  const int rank = world.rank();
  const int layer = rank / per_layer;
  const int within = rank % per_layer;
  const int gi = within / config.q;
  const int gj = within % config.q;
  const SummaBlock my =
      summa_block(n, layer_grid(config, config.panel), within);

  Summa25dReport report;

  // Grid communicators. The depth communicator threads the replication
  // (step 1) and reduction (step 3) nodes; subgroups are cached by member
  // list, so hoisting its creation out of the step scopes is free.
  std::vector<int> stack, row_members, col_members;
  if (config.c > 1) {
    for (int l = 0; l < config.c; ++l) stack.push_back(l * per_layer + within);
  }
  for (int j = 0; j < config.q; ++j) {
    row_members.push_back(layer * per_layer + gi * config.q + j);
  }
  for (int i = 0; i < config.q; ++i) {
    col_members.push_back(layer * per_layer + i * config.q + gj);
  }
  sgmpi::Comm depth = config.c > 1 ? world.subgroup(stack) : world;
  sgmpi::Comm row = config.q > 1 ? world.subgroup(row_members) : world;
  sgmpi::Comm col = config.q > 1 ? world.subgroup(col_members) : world;

  const std::int64_t k_lo = balanced_part_offset(n, config.c, layer);
  const std::int64_t k_hi = balanced_part_offset(n, config.c, layer + 1);
  const int nsteps =
      static_cast<int>((k_hi - k_lo + config.panel - 1) / config.panel);

  // The full 2.5D dataflow: replication -> step chain -> reduction. Like
  // plain SUMMA this is a chain per rank, so every schedule replays it in
  // program order.
  const taskgraph::TaskGraph graph = taskgraph::build_summa25d_graph(
      nsteps, rank, row_members, col_members, stack);

  // Panel workspaces (numeric plane only), leased from the shared pool;
  // not zeroed — every step fully overwrites what the GEMM reads.
  util::PooledBuffer wa_store, wb_store;
  if (data != nullptr) {
    wa_store = util::BufferPool::instance().acquire(my.rows * config.panel);
    wb_store = util::BufferPool::instance().acquire(my.cols * config.panel);
  }

  // --- Step 1 bodies: replicate an A/B block from layer 0 down the stack
  // (payload -1, aux 0 = A / 1 = B) ---
  auto exec_replicate = [&](const taskgraph::TaskNode& node) {
    const std::int64_t bytes =
        my.rows * my.cols * static_cast<std::int64_t>(sizeof(double));
    if (data != nullptr) {
      util::Matrix& block =
          node.aux == 0 ? data->a_block() : data->b_block();
      report.mpi_time_s += depth.bcast(block.data(), my.rows * my.cols, 0);
    } else {
      report.mpi_time_s += depth.bcast_bytes(nullptr, bytes, 0);
    }
    report.replication_bytes += bytes;
    report.bcasts += 1;
  };

  // --- Step 2 bodies: A/B panel of step `payload` along my layer row /
  // down my layer column; segments split at the q-grid block-ownership
  // boundaries over the full k axis ---
  auto exec_panel = [&](const taskgraph::TaskNode& node) {
    const std::int64_t k0 = k_lo + node.payload * config.panel;
    const std::int64_t bcur = std::min(config.panel, k_hi - k0);
    PanelBcastStats stats;
    if (node.aux == 0) {
      util::MatrixView wa;
      util::ConstMatrixView a_block;
      if (data != nullptr) {
        wa = util::MatrixView(wa_store.data(), my.rows, bcur, bcur);
        a_block = data->a_block();
      }
      stats = bcast_k_panel(row, PanelAxis::kA, n, config.q, gj, my.rows,
                            k0, bcur, a_block, wa);
    } else {
      util::MatrixView wb;
      util::ConstMatrixView b_block;
      if (data != nullptr) {
        wb = util::MatrixView(wb_store.data(), bcur, my.cols, my.cols);
        b_block = data->b_block();
      }
      stats = bcast_k_panel(col, PanelAxis::kB, n, config.q, gi, my.cols,
                            k0, bcur, b_block, wb);
    }
    report.mpi_time_s += stats.mpi_time_s;
    report.bcasts += stats.bcasts;
    report.bcast_bytes += stats.bytes;
  };

  // Rank-b update of the layer-local partial C (step `payload`).
  auto exec_step_gemm = [&](const taskgraph::TaskNode& node) {
    const std::int64_t k0 = k_lo + node.payload * config.panel;
    const std::int64_t bcur = std::min(config.panel, k_hi - k0);
    ++report.steps;
    device::KernelCost cost;
    if (data == nullptr) {
      cost = ap.kernel_cost(my.rows, my.cols, bcur, contended);
    } else {
      const util::MatrixView wa(wa_store.data(), my.rows, bcur, bcur);
      const util::MatrixView wb(wb_store.data(), bcur, my.cols, my.cols);
      // WB holds B[k0:k0+bcur, col0:col0+my.cols] — identical on every
      // rank of my layer column, so tag it for the blas pack cache.
      const std::int64_t col0 = balanced_part_offset(n, config.q, gj);
      const std::uint64_t wb_key = blas::pack_tag(
          {world.context_uid(), kSumma25dPackTag,
           static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(k0),
           static_cast<std::uint64_t>(bcur),
           static_cast<std::uint64_t>(col0),
           static_cast<std::uint64_t>(my.cols)});
      cost = ap.run_gemm(my.rows, my.cols, bcur, wa.data(), bcur, wb.data(),
                         my.cols, data->c_block().data(), my.cols, contended,
                         wb_key);
    }
    auto& clk = world.clock();
    const double t0 = clk.now();
    clk.advance_compute(cost.compute_s + cost.transfer_s);
    if (world.events().enabled()) {
      world.events().record({world.world_rank(), trace::EventKind::kCompute,
                             t0, clk.now(), 0,
                             blas::gemm_flops(my.rows, my.cols, bcur),
                             "2.5d k0=" + std::to_string(k0)});
    }
    report.flops += blas::gemm_flops(my.rows, my.cols, bcur);
  };

  // --- Step 3 body: reduce the partial C blocks across the stack ---
  auto exec_reduce = [&](const taskgraph::TaskNode&) {
    const std::int64_t count = my.rows * my.cols;
    report.mpi_time_s += depth.allreduce_sum_buffer(
        data != nullptr ? data->c_block().data() : nullptr, count);
    report.reduce_bytes +=
        count * static_cast<std::int64_t>(sizeof(double));
  };

  taskgraph::ExecHooks hooks;
  hooks.run_comm = [&](const taskgraph::TaskNode& node) {
    if (node.kind == taskgraph::NodeKind::kReduce) {
      exec_reduce(node);
    } else if (node.payload < 0) {
      exec_replicate(node);
    } else {
      exec_panel(node);
    }
  };
  hooks.run_local = [&](const taskgraph::TaskNode& node) {
    if (node.kind == taskgraph::NodeKind::kPack) {
      exec_panel(node);
    } else {
      exec_step_gemm(node);
    }
  };
  taskgraph::run_graph(graph, rank, config.scheduler, /*window=*/0, hooks);
  return report;
}

}  // namespace summagen::core

#include "src/core/summa25d.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/blas/gemm.hpp"
#include "src/core/panel_bcast.hpp"
#include "src/util/buffer_pool.hpp"
#include "src/util/matrix_view.hpp"

namespace summagen::core {
namespace {

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

  // Grid communicators: the depth communicator stacks my (i, j) block
  // across the layers; row and column are my layer's SUMMA grid lines.
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

  // Panel workspaces (numeric plane only), leased from the shared pool;
  // not zeroed — every step fully overwrites what the GEMM reads.
  util::PooledBuffer wa_store, wb_store;
  if (data != nullptr) {
    wa_store = util::BufferPool::instance().acquire(my.rows * config.panel);
    wb_store = util::BufferPool::instance().acquire(my.cols * config.panel);
  }

  const std::int64_t block_count = my.rows * my.cols;
  const std::int64_t block_bytes =
      block_count * static_cast<std::int64_t>(sizeof(double));

  // 1. Replication: A, then B, from layer 0 down the stack.
  if (config.c > 1) {
    for (const bool is_a : {true, false}) {
      double* block = nullptr;
      if (data != nullptr) {
        block = is_a ? data->a_block().data() : data->b_block().data();
      }
      report.mpi_time_s += depth.bcast(block, block_count, 0);
      report.replication_bytes += block_bytes;
      report.bcasts += 1;
    }
  }

  // 2. My layer's SUMMA panel loop over its share [k_lo, k_hi) of k; the
  // panel segments split at the q-grid block-ownership boundaries over
  // the full k axis.
  const auto count = [&report](const PanelBcastStats& stats) {
    report.mpi_time_s += stats.mpi_time_s;
    report.bcasts += stats.bcasts;
    report.bcast_bytes += stats.bytes;
  };
  const std::int64_t k_lo = balanced_part_offset(n, config.c, layer);
  const std::int64_t k_hi = balanced_part_offset(n, config.c, layer + 1);
  for (std::int64_t k0 = k_lo; k0 < k_hi; k0 += config.panel) {
    const std::int64_t bcur = std::min(config.panel, k_hi - k0);
    util::MatrixView wa, wb;
    util::ConstMatrixView a_block, b_block;
    if (data != nullptr) {
      wa = util::MatrixView(wa_store.data(), my.rows, bcur, bcur);
      wb = util::MatrixView(wb_store.data(), bcur, my.cols, my.cols);
      a_block = data->a_block();
      b_block = data->b_block();
    }
    count(bcast_k_panel(row, PanelAxis::kA, n, config.q, gj, my.rows, k0,
                        bcur, a_block, wa));
    count(bcast_k_panel(col, PanelAxis::kB, n, config.q, gi, my.cols, k0,
                        bcur, b_block, wb));

    // Rank-b update of the layer-local partial C.
    ++report.steps;
    device::KernelCost cost;
    if (data == nullptr) {
      cost = ap.kernel_cost(my.rows, my.cols, bcur, contended);
    } else {
      cost = ap.run_gemm(my.rows, my.cols, bcur, wa.data(), bcur, wb.data(),
                         my.cols, data->c_block().data(), my.cols, contended);
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
  }

  // 3. Reduction: sum the partial C blocks across the stack.
  if (config.c > 1) {
    report.mpi_time_s += depth.allreduce_sum_buffer(
        data != nullptr ? data->c_block().data() : nullptr, block_count);
    report.reduce_bytes += block_bytes;
  }
  return report;
}

}  // namespace summagen::core

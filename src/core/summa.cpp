#include "src/core/summa.hpp"

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

void validate_config(std::int64_t n, const SummaConfig& config) {
  if (n <= 0) throw std::invalid_argument("summa: n <= 0");
  if (config.pr < 1 || config.pc < 1) {
    throw std::invalid_argument("summa: grid extents must be >= 1");
  }
  if (config.panel < 1) {
    throw std::invalid_argument("summa: panel width must be >= 1");
  }
  if (config.pr > n || config.pc > n) {
    throw std::invalid_argument("summa: grid larger than the matrix");
  }
}

}  // namespace

SummaBlock summa_block(std::int64_t n, const SummaConfig& config, int rank) {
  validate_config(n, config);
  if (rank < 0 || rank >= config.pr * config.pc) {
    throw std::invalid_argument("summa: rank outside grid");
  }
  const int gi = rank / config.pc;
  const int gj = rank % config.pc;
  SummaBlock b;
  b.row0 = balanced_part_offset(n, config.pr, gi);
  b.rows = balanced_part_size(n, config.pr, gi);
  b.col0 = balanced_part_offset(n, config.pc, gj);
  b.cols = balanced_part_size(n, config.pc, gj);
  return b;
}

SummaLocalData::SummaLocalData(std::int64_t n, const SummaConfig& config,
                               int rank, const util::Matrix& a,
                               const util::Matrix& b) {
  if (a.rows() != n || a.cols() != n || b.rows() != n || b.cols() != n) {
    throw std::invalid_argument("SummaLocalData: globals must be n x n");
  }
  extent_ = summa_block(n, config, rank);
  a_ = util::extract_block(a, extent_.row0, extent_.col0, extent_.rows,
                           extent_.cols);
  b_ = util::extract_block(b, extent_.row0, extent_.col0, extent_.rows,
                           extent_.cols);
  c_ = util::Matrix(extent_.rows, extent_.cols);
}

void SummaLocalData::gather_c(util::Matrix& c_global) const {
  util::place_block(c_global, c_, extent_.row0, extent_.col0);
}

SummaReport summa_rank(sgmpi::Comm& world, std::int64_t n,
                       const SummaConfig& config,
                       const device::AbstractProcessor& ap,
                       SummaLocalData* data, bool contended) {
  validate_config(n, config);
  if (world.size() != config.pr * config.pc) {
    throw std::invalid_argument("summa: world size != pr * pc");
  }
  const int rank = world.rank();
  const int gi = rank / config.pc;
  const int gj = rank % config.pc;
  const std::int64_t my_rows = balanced_part_size(n, config.pr, gi);
  const std::int64_t my_cols = balanced_part_size(n, config.pc, gj);

  // Row and column communicators of the 2D grid.
  std::vector<int> row_members, col_members;
  for (int j = 0; j < config.pc; ++j) row_members.push_back(gi * config.pc + j);
  for (int i = 0; i < config.pr; ++i) col_members.push_back(i * config.pc + gj);
  sgmpi::Comm row = config.pc > 1 ? world.subgroup(row_members) : world;
  sgmpi::Comm col = config.pr > 1 ? world.subgroup(col_members) : world;

  // Panel workspaces (numeric plane only), leased from the shared pool:
  // WA is my_rows x b, WB is b x my_cols. Not zeroed — every panel step
  // fully overwrites the columns/rows the GEMM below reads.
  util::PooledBuffer wa_store, wb_store;
  if (data != nullptr) {
    wa_store = util::BufferPool::instance().acquire(my_rows * config.panel);
    wb_store = util::BufferPool::instance().acquire(my_cols * config.panel);
  }

  SummaReport report;
  const auto count = [&report](const PanelBcastStats& stats) {
    report.mpi_time_s += stats.mpi_time_s;
    report.bcasts += stats.bcasts;
    report.bcast_bytes += stats.bytes;
  };
  for (std::int64_t k0 = 0; k0 < n; k0 += config.panel) {
    const std::int64_t bcur = std::min(config.panel, n - k0);
    util::MatrixView wa, wb;
    util::ConstMatrixView a_block, b_block;
    if (data != nullptr) {
      wa = util::MatrixView(wa_store.data(), my_rows, bcur, bcur);
      wb = util::MatrixView(wb_store.data(), bcur, my_cols, my_cols);
      a_block = data->a_block();
      b_block = data->b_block();
    }
    // The A panel along my grid row, then the B panel down my grid column.
    // On a one-rank axis bcast_k_panel is the local copy alone, with no
    // broadcast counted.
    count(bcast_k_panel(row, PanelAxis::kA, n, config.pc, gj, my_rows, k0,
                        bcur, a_block, wa));
    count(bcast_k_panel(col, PanelAxis::kB, n, config.pr, gi, my_cols, k0,
                        bcur, b_block, wb));

    // Rank-b update of my C block.
    ++report.steps;
    device::KernelCost cost;
    if (data == nullptr) {
      cost = ap.kernel_cost(my_rows, my_cols, bcur, contended);
    } else {
      cost = ap.run_gemm(my_rows, my_cols, bcur, wa.data(), bcur, wb.data(),
                         my_cols, data->c_block().data(), my_cols, contended);
    }
    auto& clk = world.clock();
    const double t0 = clk.now();
    clk.advance_compute(cost.compute_s);
    if (world.events().enabled()) {
      world.events().record({world.world_rank(), trace::EventKind::kCompute,
                             t0, clk.now(), 0,
                             blas::gemm_flops(my_rows, my_cols, bcur),
                             "summa k0=" + std::to_string(k0)});
    }
    if (cost.transfer_s > 0.0) {
      clk.advance_compute(cost.transfer_s);
    }
    report.flops += blas::gemm_flops(my_rows, my_cols, bcur);
  }
  return report;
}

}  // namespace summagen::core

#include "src/core/dataplane.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace summagen::core {

namespace {

// WA and WB each start on a 64-byte line of the run's lease.
constexpr std::int64_t kSliceAlign = 8;  // doubles

std::int64_t align_up(std::int64_t doubles) {
  return (doubles + kSliceAlign - 1) / kSliceAlign * kSliceAlign;
}

}  // namespace

LocalData::LocalData(const partition::PartitionSpec& spec, int rank,
                     const util::Matrix& a, const util::Matrix& b,
                     util::Matrix* c_global)
    : numeric_(true), rank_(rank), a_(&a), b_(&b) {
  const auto roff = spec.row_offsets();
  const auto coff = spec.col_offsets();
  for (int bi = 0; bi < spec.subplda; ++bi) {
    for (int bj = 0; bj < spec.subpldb; ++bj) {
      if (spec.owner(bi, bj) != rank) continue;
      partition::Rect r;
      r.row0 = roff[static_cast<std::size_t>(bi)];
      r.col0 = coff[static_cast<std::size_t>(bj)];
      r.rows = spec.subph[static_cast<std::size_t>(bi)];
      r.cols = spec.subpw[static_cast<std::size_t>(bj)];
      cells_.emplace(std::make_pair(bi, bj), r);
    }
  }
  c_rect_ = spec.covering(rank);
  if (c_global != nullptr) {
    c_in_place_ = true;
    c_view_ = util::block_view(*c_global, c_rect_.row0, c_rect_.col0,
                               c_rect_.rows, c_rect_.cols);
  } else {
    c_store_ =
        util::BufferPool::instance().acquire(c_rect_.rows * c_rect_.cols);
    c_view_ = util::MatrixView(c_store_.data(), c_rect_.rows, c_rect_.cols,
                               c_rect_.cols);
    c_view_.fill(0.0);
  }
}

const partition::Rect& LocalData::cell(const char* which, int bi,
                                       int bj) const {
  const auto it = cells_.find({bi, bj});
  if (it == cells_.end()) {
    throw std::out_of_range("LocalData: rank " + std::to_string(rank_) +
                            " does not own " + which + "(" +
                            std::to_string(bi) + "," + std::to_string(bj) +
                            ")");
  }
  return it->second;
}

util::ConstMatrixView LocalData::a_part(int bi, int bj) const {
  const partition::Rect& r = cell("A", bi, bj);
  return util::block_view(*a_, r.row0, r.col0, r.rows, r.cols);
}

util::ConstMatrixView LocalData::b_part(int bi, int bj) const {
  const partition::Rect& r = cell("B", bi, bj);
  return util::block_view(*b_, r.row0, r.col0, r.rows, r.cols);
}

bool LocalData::owns(int bi, int bj) const {
  return cells_.contains({bi, bj});
}

void LocalData::gather_c(util::Matrix& c_global) const {
  if (!numeric_) {
    throw std::logic_error("LocalData::gather_c on a modeled plane");
  }
  if (c_in_place_) return;  // owned cells were written into C directly
  for (const auto& [key, r] : cells_) {
    if (r.rows == 0 || r.cols == 0) continue;
    util::copy_matrix(
        c_global.data() + r.row0 * c_global.cols() + r.col0, c_global.cols(),
        c_view_.data() + (r.row0 - c_rect_.row0) * c_view_.ld() +
            (r.col0 - c_rect_.col0),
        c_view_.ld(), r.rows, r.cols);
  }
}

RunStores::RunStores(const partition::PartitionSpec& spec, int nranks,
                     const util::Matrix& a, const util::Matrix& b,
                     util::Matrix* c_global) {
  spec.validate(nranks);
  if (a.rows() != spec.n || a.cols() != spec.n || b.rows() != spec.n ||
      b.cols() != spec.n) {
    throw std::invalid_argument("RunStores: global matrices must be n x n");
  }
  if (c_global != nullptr &&
      (c_global->rows() != spec.n || c_global->cols() != spec.n)) {
    throw std::invalid_argument("RunStores: global C must be n x n");
  }
  // The paper's WA/WB extents: from the first to the last sub-partition
  // row (column) the rank appears in. A rank owning nothing spans {0, 0}.
  const std::int64_t n = spec.n;
  const auto roff = spec.row_offsets();
  const auto coff = spec.col_offsets();
  struct Extent {
    std::int64_t row0, rows, col0, cols;
  };
  std::vector<Extent> extents;
  std::int64_t total = 0;
  for (int r = 0; r < nranks; ++r) {
    const auto [myi, block_lda] = spec.row_span(r);
    const auto [myj, block_ldb] = spec.col_span(r);
    Extent e;
    e.row0 = roff[static_cast<std::size_t>(myi)];
    e.rows = roff[static_cast<std::size_t>(myi + block_lda)] - e.row0;
    e.col0 = coff[static_cast<std::size_t>(myj)];
    e.cols = coff[static_cast<std::size_t>(myj + block_ldb)] - e.col0;
    total += align_up(e.rows * n) + align_up(n * e.cols);
    extents.push_back(e);
  }

  // Deliberately not zeroed: the plan writes every region a DGEMM reads
  // (all cells of a rank's block rows land in its WA and of its block
  // columns in its WB before any chunk touches them) — including under
  // recovery pruning, which keeps an A/B op whenever any surviving DGEMM
  // reads its row/column.
  workspace_ = util::BufferPool::instance().acquire(
      static_cast<std::size_t>(total));
  double* next = workspace_.data();
  for (int r = 0; r < nranks; ++r) {
    const Extent& e = extents[static_cast<std::size_t>(r)];
    std::unique_ptr<LocalData> local(new LocalData(spec, r, a, b, c_global));
    local->wa_row0_ = e.row0;
    local->wb_col0_ = e.col0;
    local->wa_ = util::MatrixView(next, e.rows, n, n);
    next += align_up(e.rows * n);
    local->wb_ = util::MatrixView(next, n, e.cols, e.cols);
    next += align_up(n * e.cols);
    locals_.push_back(std::move(local));
  }
}

LocalData* RunStores::at(int rank) const {
  if (rank < 0 || rank >= static_cast<int>(locals_.size())) return nullptr;
  return locals_[static_cast<std::size_t>(rank)].get();
}

void RunStores::gather_c(util::Matrix& c_global) const {
  for (const auto& local : locals_) local->gather_c(c_global);
}

void RunStores::release_workspace() {
  for (const auto& local : locals_) {
    local->wa_ = {};
    local->wb_ = {};
  }
  workspace_.release();
}

}  // namespace summagen::core

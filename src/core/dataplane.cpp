#include "src/core/dataplane.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace summagen::core {

namespace {

// Every receive slot starts on a 64-byte line of the run's lease.
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

util::MatrixView LocalData::slot(const Slots& slots, const char* which,
                                 int bi, int bj) const {
  const auto it = slots.find({bi, bj});
  if (it == slots.end()) {
    throw std::out_of_range("LocalData: rank " + std::to_string(rank_) +
                            " has no receive slot for " + which + "(" +
                            std::to_string(bi) + "," + std::to_string(bj) +
                            ")");
  }
  return it->second;
}

util::MatrixView LocalData::a_slot(int bi, int bk) const {
  return slot(a_slots_, "A", bi, bk);
}

util::MatrixView LocalData::b_slot(int bk, int bj) const {
  return slot(b_slots_, "B", bk, bj);
}

util::ConstMatrixView LocalData::a_block(int bi, int bk) const {
  return owns(bi, bk) ? a_part(bi, bk) : a_slot(bi, bk);
}

util::ConstMatrixView LocalData::b_block(int bk, int bj) const {
  return owns(bk, bj) ? b_part(bk, bj) : b_slot(bk, bj);
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
  for (int r = 0; r < nranks; ++r) {
    locals_.push_back(
        std::unique_ptr<LocalData>(new LocalData(spec, r, a, b, c_global)));
  }

  // Slot layout, in a fixed order: every A row, then every B column; in a
  // line, each owner ascending, then the line's blocks in order, skipping
  // the owner's own. A single-owner line has no receiver.
  struct Slot {
    LocalData::Slots* slots;
    std::pair<int, int> block;
    std::int64_t rows, cols, offset;
  };
  std::vector<Slot> layout;
  std::int64_t total = 0;
  const auto add_line = [&](bool is_a, int line) {
    const std::vector<int> owners =
        is_a ? spec.ranks_in_row(line) : spec.ranks_in_col(line);
    if (owners.size() < 2) return;
    const int cross = is_a ? spec.subpldb : spec.subplda;
    for (const int r : owners) {
      LocalData& local = *locals_[static_cast<std::size_t>(r)];
      for (int k = 0; k < cross; ++k) {
        const int bi = is_a ? line : k;
        const int bj = is_a ? k : line;
        const std::int64_t h = spec.subph[static_cast<std::size_t>(bi)];
        const std::int64_t w = spec.subpw[static_cast<std::size_t>(bj)];
        if (h == 0 || w == 0 || spec.owner(bi, bj) == r) continue;
        layout.push_back({is_a ? &local.a_slots_ : &local.b_slots_,
                          {bi, bj}, h, w, total});
        total += align_up(h * w);
      }
    }
  };
  for (int bi = 0; bi < spec.subplda; ++bi) add_line(/*is_a=*/true, bi);
  for (int bj = 0; bj < spec.subpldb; ++bj) add_line(/*is_a=*/false, bj);

  // Deliberately not zeroed: every slot a DGEMM reads is written by its
  // broadcast first — also under recovery pruning, which keeps a
  // broadcast whenever any surviving chunk reads its block.
  workspace_ = util::BufferPool::instance().acquire(
      static_cast<std::size_t>(total));
  for (const Slot& s : layout) {
    s.slots->emplace(s.block, util::MatrixView(workspace_.data() + s.offset,
                                               s.rows, s.cols, s.cols));
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
    for (auto* slots : {&local->a_slots_, &local->b_slots_}) {
      for (auto& [block, view] : *slots) view = {};
    }
    local->released_ = true;
  }
  workspace_.release();
}

}  // namespace summagen::core

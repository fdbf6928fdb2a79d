// Non-blocking sgmpi broadcasts: the post/complete split of ibcast_bytes and
// ibcast_panel, plus the blocking wrappers built on top of them.
//
// Posting never blocks on peers. A collective post registers this rank in a
// per-communicator AsyncSlot matched by posting order (the MPI rule that all
// members issue collectives on a communicator in the same sequence) and
// reserves the rank's virtual communication lane. Payload movement and
// virtual-time settlement happen at completion (`wait`/`waitall`/`test`):
// receivers copy straight out of the root's buffer, and the root's own
// completion blocks until every receiver has copied, which is what makes the
// root's buffer lifetime end at its wait.
//
// Virtual time: an operation's effective interval is
// [entry_max, entry_max + cost], where entry_max is the latest comm-lane
// start over all posters. Completion settles the caller's clock via
// VirtualClock::complete_async_comm, so cost overlapping local compute is
// hidden (the overlap win) and only the remainder stalls the main line.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "src/mpi/context.hpp"
#include "src/mpi/mpi.hpp"

namespace summagen::sgmpi {

namespace {

void validate_root(int root, int size) {
  if (root < 0 || root >= size) {
    throw std::invalid_argument("sgmpi: root " + std::to_string(root) +
                                " outside communicator of size " +
                                std::to_string(size));
  }
}

std::string comm_label(std::size_t state_index) {
  return state_index == 0 ? "world"
                          : "subgroup#" + std::to_string(state_index);
}

/// Retires this rank's participation in a slot; the last member out erases
/// the slot (sequence numbers never repeat, so erasure is final).
void finish_slot(detail::CommState& st,
                 std::map<std::uint64_t, detail::AsyncSlot>::iterator it,
                 int q) {
  if (++it->second.finished == q) st.async_slots.erase(it);
}

}  // namespace

// Destroying a pending request is a programming error (the peers of a
// collective would wait forever for this rank's completion) and fails
// loudly. During exception unwind the runtime is already tearing the run
// down via the abort/fault path, so dropping a pending request there is
// tolerated.
Request::~Request() {
  if (op_ == nullptr) return;
  if (std::uncaught_exceptions() > 0) return;
  const char* kind =
      op_->kind == Kind::kBcastSendRoot ? "ibcast(root)" : "ibcast(recv)";
  std::fprintf(stderr,
               "sgmpi: fatal: pending %s request destroyed without "
               "wait/test on comm '%s'\n",
               kind, op_->comm_desc.c_str());
  std::fflush(stderr);
  std::abort();
}

Request Comm::ibcast_bytes(void* data, std::int64_t bytes, int root) {
  const int q = size();
  validate_root(root, q);
  if (bytes < 0) throw std::invalid_argument("sgmpi: negative bcast size");
  if (q == 1) return Request{};
  ctx_->unwind_check(world_rank());

  auto op = std::make_unique<Request::Op>();
  op->kind = rank_ == root ? Request::Kind::kBcastSendRoot
                           : Request::Kind::kBcastRecv;
  op->state_index = state_index_;
  op->recv_buf = rank_ == root ? nullptr : data;
  op->bytes = bytes;
  op->root = root;
  op->cost = modeled_bcast_cost(bytes, q);
  if (ctx_->faults) {
    op->cost *= ctx_->faults->link_factor(world_rank(), clock().now());
  }
  op->lane_start = clock().post_async_comm(op->cost);
  op->comm_desc = comm_label(state_index_);

  auto& st = ctx_->state(state_index_);
  {
    std::lock_guard<std::mutex> lock(st.async_mutex);
    op->seq = st.next_post_seq[static_cast<std::size_t>(rank_)]++;
    auto& slot = st.async_slots[op->seq];
    ++slot.posted;
    slot.entry_max = std::max(slot.entry_max, op->lane_start);
    if (slot.bytes < 0) {
      slot.bytes = bytes;
    } else if (slot.bytes != bytes) {
      throw std::invalid_argument(
          "sgmpi: bcast size mismatch across members (got " +
          std::to_string(bytes) + " vs " + std::to_string(slot.bytes) + ")");
    }
    if (slot.root < 0) {
      slot.root = root;
    } else if (slot.root != root) {
      throw std::invalid_argument("sgmpi: bcast root mismatch across members");
    }
    if (rank_ == root) {
      slot.src = data;
      slot.root_posted = true;
    }
  }
  st.async_cv.notify_all();
  return Request{std::move(op)};
}

Request Comm::ibcast_panel(util::ConstMatrixView src, util::MatrixView dst,
                           int root) {
  const int q = size();
  validate_root(root, q);
  const bool is_root = rank_ == root;
  if (!is_root && src.data() != nullptr) {
    throw std::invalid_argument(
        "sgmpi: ibcast_panel src is root-only (non-root members pass {})");
  }
  const std::int64_t rows = is_root ? src.rows() : dst.rows();
  const std::int64_t cols = is_root ? src.cols() : dst.cols();
  if (is_root && dst.data() != nullptr &&
      (dst.rows() != rows || dst.cols() != cols)) {
    throw std::invalid_argument(
        "sgmpi: ibcast_panel root dst shape differs from src");
  }
  const std::int64_t bytes =
      rows * cols * static_cast<std::int64_t>(sizeof(double));
  if (q == 1) {
    // Single-member communicator: no traffic, but the root's local store
    // still happens (callers rely on the panel landing in dst).
    if (is_root && dst.data() != nullptr && rows > 0 && cols > 0) {
      util::copy_view(src, dst);
    }
    return Request{};
  }
  ctx_->unwind_check(world_rank());

  auto op = std::make_unique<Request::Op>();
  op->kind = is_root ? Request::Kind::kBcastSendRoot
                     : Request::Kind::kBcastRecv;
  op->state_index = state_index_;
  op->recv_buf = dst.data();
  op->bytes = bytes;
  op->root = root;
  op->panel = true;
  op->panel_rows = rows;
  op->panel_cols = cols;
  op->src_ld = src.ld();
  op->dst_ld = dst.ld();
  op->panel_src = src.data();
  op->cost = modeled_bcast_cost(bytes, q);
  if (ctx_->faults) {
    op->cost *= ctx_->faults->link_factor(world_rank(), clock().now());
  }
  op->lane_start = clock().post_async_comm(op->cost);
  op->comm_desc = comm_label(state_index_);

  auto& st = ctx_->state(state_index_);
  {
    std::lock_guard<std::mutex> lock(st.async_mutex);
    op->seq = st.next_post_seq[static_cast<std::size_t>(rank_)]++;
    auto& slot = st.async_slots[op->seq];
    ++slot.posted;
    slot.entry_max = std::max(slot.entry_max, op->lane_start);
    if (slot.bytes < 0) {
      slot.bytes = bytes;
    } else if (slot.bytes != bytes) {
      throw std::invalid_argument(
          "sgmpi: bcast size mismatch across members (got " +
          std::to_string(bytes) + " vs " + std::to_string(slot.bytes) + ")");
    }
    if (slot.root < 0) {
      slot.root = root;
    } else if (slot.root != root) {
      throw std::invalid_argument("sgmpi: bcast root mismatch across members");
    }
    if (slot.rows < 0) {
      slot.rows = rows;
      slot.cols = cols;
    } else if (slot.rows != rows || slot.cols != cols) {
      throw std::invalid_argument(
          "sgmpi: panel bcast shape mismatch across members");
    }
    if (is_root) {
      slot.src = src.data();
      slot.src_ld = src.ld();
      slot.root_posted = true;
    }
  }
  st.async_cv.notify_all();
  return Request{std::move(op)};
}

double Comm::wait(Request& request) {
  if (!request.pending()) return 0.0;
  const Request::Op& op = *request.op_;
  if (op.state_index != state_index_) {
    throw std::invalid_argument(
        "sgmpi: request waited on a different communicator than it was "
        "posted on");
  }
  const double entry = clock().now();
  auto& st = ctx_->state(state_index_);
  const int q = size();
  const int me = world_rank();
  const bool is_root = op.kind == Request::Kind::kBcastSendRoot;
  double entry_max = 0.0;
  {
    std::unique_lock<std::mutex> lock(st.async_mutex);
    const auto it = st.async_slots.find(op.seq);
    if (it == st.async_slots.end()) {
      throw std::logic_error("sgmpi: request completed twice");
    }
    detail::AsyncSlot& slot = it->second;
    double backoff_s = std::min(ctx_->config.poll_interval_s, 0.001);
    while (slot.posted < q || (is_root && slot.copied < q - 1)) {
      ctx_->unwind_check(me);
      detail::engine_wait_step(lock, st.async_cv, backoff_s,
                               ctx_->config.poll_interval_s);
    }
    if (!is_root) {
      if (op.recv_buf != nullptr && slot.src != nullptr) {
        if (op.panel) {
          // Strided gather straight out of the root's view — the
          // zero-staging path of ibcast_panel. A contiguous root
          // (src_ld unset) is read with ld == cols.
          const std::int64_t src_ld =
              slot.src_ld >= 0 ? slot.src_ld : op.panel_cols;
          if (op.panel_rows > 0 && op.panel_cols > 0) {
            util::copy_matrix(static_cast<double*>(op.recv_buf), op.dst_ld,
                              static_cast<const double*>(slot.src), src_ld,
                              op.panel_rows, op.panel_cols);
          }
        } else {
          std::memcpy(op.recv_buf, slot.src,
                      static_cast<std::size_t>(op.bytes));
        }
      }
      ++slot.copied;
    }
    entry_max = slot.entry_max;
    finish_slot(st, it, q);
  }
  st.async_cv.notify_all();
  // Panel root with a local destination: store its own copy of the panel
  // now, outside the slot lock (src and dst are this rank's buffers; values
  // are identical whenever it happens before return).
  if (is_root && op.panel && op.recv_buf != nullptr &&
      op.panel_src != nullptr && op.panel_rows > 0 && op.panel_cols > 0) {
    util::copy_matrix(static_cast<double*>(op.recv_buf), op.dst_ld,
                      op.panel_src, op.src_ld, op.panel_rows, op.panel_cols);
  }
  const double completion = entry_max + op.cost;
  const double cost = op.cost;
  clock().complete_async_comm(completion, cost);
  record_completion(op, entry, completion);
  request.op_.reset();
  return cost;
}

double Comm::waitall(std::vector<Request>& requests) {
  double total = 0.0;
  for (Request& r : requests) total += wait(r);
  return total;
}

bool Comm::test(Request& request) {
  if (!request.pending()) return true;
  const Request::Op& op = *request.op_;
  auto& st = ctx_->state(state_index_);
  const int q = size();
  {
    std::lock_guard<std::mutex> lock(st.async_mutex);
    const auto it = st.async_slots.find(op.seq);
    if (it == st.async_slots.end()) {
      throw std::logic_error("sgmpi: request completed twice");
    }
    const detail::AsyncSlot& slot = it->second;
    const bool is_root = op.kind == Request::Kind::kBcastSendRoot;
    if (slot.posted < q || (is_root && slot.copied < q - 1)) return false;
  }
  // Fully posted (and copied, for the root): wait() is instant.
  wait(request);
  return true;
}

double Comm::bcast_panel(util::ConstMatrixView src, util::MatrixView dst,
                         int root) {
  Request r = ibcast_panel(src, dst, root);
  if (!r.pending()) return 0.0;  // single-member communicator
  r.op_->blocking = true;
  return wait(r);
}

double Comm::bcast_bytes(void* data, std::int64_t bytes, int root) {
  Request r = ibcast_bytes(data, bytes, root);
  if (!r.pending()) return 0.0;  // single-member communicator
  r.op_->blocking = true;
  return wait(r);
}

void Comm::record_completion(const Request::Op& op, double wait_entry,
                             double completion) {
  if (!events().enabled()) return;
  const std::string detail =
      "root=w" +
      std::to_string(world_ranks()[static_cast<std::size_t>(op.root)]);
  if (op.blocking) {
    // Identical to the historical blocking event: spans the call.
    events().record({world_rank(), trace::EventKind::kBcast, wait_entry,
                     clock().now(), op.bytes, 0, detail});
  } else {
    // The operation's effective interval on the comm lane — it may lie
    // entirely under earlier compute in the Gantt (that is the point).
    events().record({world_rank(), trace::EventKind::kAsyncBcast,
                     completion - op.cost, completion, op.bytes, 0, detail});
  }
}

}  // namespace summagen::sgmpi

#include <algorithm>
#include <cstring>
#include <stdexcept>

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

}  // namespace

int Comm::size() const noexcept {
  return static_cast<int>(ctx_->state(state_index_).members.size());
}

const std::vector<int>& Comm::world_ranks() const noexcept {
  return ctx_->state(state_index_).members;
}

int Comm::world_rank() const noexcept {
  return world_ranks()[static_cast<std::size_t>(rank_)];
}

trace::VirtualClock& Comm::clock() {
  return ctx_->clocks[static_cast<std::size_t>(world_rank())];
}

const trace::VirtualClock& Comm::clock() const {
  return ctx_->clocks[static_cast<std::size_t>(world_rank())];
}

trace::EventLog& Comm::events() { return ctx_->event_log; }

const trace::HockneyParams& Comm::link() const {
  return ctx_->state(state_index_).link;
}

double Comm::modeled_bcast_cost(std::int64_t bytes, int q) const {
  auto& st = ctx_->state(state_index_);
  const trace::BcastAlgo algo = ctx_->config.bcast_algo;
  if (ctx_->config.two_level_collectives && st.n_nodes > 1) {
    // Two-level pricing: root -> node leaders over the inter-node link,
    // then every leader fans out inside its node concurrently; completion
    // is the inter-node stage plus the widest intra-node stage. The
    // algorithm resolves per stage (stage sizes differ under kAuto).
    return trace::bcast_algo_cost(ctx_->config.internode_link, bytes,
                                  st.n_nodes, algo) +
           trace::bcast_algo_cost(ctx_->config.link, bytes,
                                  st.max_node_ranks, algo);
  }
  return trace::bcast_algo_cost(st.link, bytes, q, algo);
}

void Comm::barrier() {
  auto& st = ctx_->state(state_index_);
  const int q = size();
  if (q == 1) return;
  const int me = world_rank();
  const auto unwind = [this, me] { ctx_->unwind_check(me); };
  unwind();
  const double entry = clock().now();
  double entry_max = 0.0;
  st.meeting.rendezvous(
      unwind, ctx_->config.poll_interval_s, q,
      [&] { st.entry_max = std::max(st.entry_max, entry); },
      [&] {
        st.op_complete = st.entry_max + barrier_cost(link(), q);
      });
  st.meeting.rendezvous(
      unwind, ctx_->config.poll_interval_s, q,
      [&] { entry_max = st.entry_max; },
      [&] { st.entry_max = 0.0; });
  clock().wait_until(entry_max);
  clock().advance_comm(barrier_cost(link(), q));
  if (events().enabled()) {
    events().record({world_rank(), trace::EventKind::kBarrier, entry,
                     clock().now(), 0, 0, ""});
  }
}

double Comm::allreduce_max(double value) {
  const int q = size();
  if (q == 1) return value;
  auto& st = ctx_->state(state_index_);
  const int me = world_rank();
  const auto unwind = [this, me] { ctx_->unwind_check(me); };
  unwind();
  const double entry = clock().now();
  const double cost = trace::allreduce_cost(link(), sizeof(double), q);
  st.meeting.rendezvous(
      unwind, ctx_->config.poll_interval_s, q,
      [&] {
        st.entry_max = std::max(st.entry_max, entry);
        st.reduce_acc = st.reduce_started ? std::max(st.reduce_acc, value)
                                          : value;
        st.reduce_started = true;
      },
      [] {});
  const double result = st.reduce_acc;
  double entry_max = 0.0;
  st.meeting.rendezvous(
      unwind, ctx_->config.poll_interval_s, q,
      [&] { entry_max = st.entry_max; },
      [&] {
        st.entry_max = 0.0;
        st.reduce_acc = 0.0;
        st.reduce_started = false;
      });
  clock().wait_until(entry_max);
  clock().advance_comm(cost);
  return result;
}

double Comm::allreduce_sum(double value) {
  const int q = size();
  if (q == 1) return value;
  auto& st = ctx_->state(state_index_);
  const int me = world_rank();
  const auto unwind = [this, me] { ctx_->unwind_check(me); };
  unwind();
  const double entry = clock().now();
  const double cost = trace::allreduce_cost(link(), sizeof(double), q);
  st.meeting.rendezvous(
      unwind, ctx_->config.poll_interval_s, q,
      [&] {
        st.entry_max = std::max(st.entry_max, entry);
        st.reduce_acc += value;
      },
      [] {});
  const double result = st.reduce_acc;
  double entry_max = 0.0;
  st.meeting.rendezvous(
      unwind, ctx_->config.poll_interval_s, q,
      [&] { entry_max = st.entry_max; },
      [&] {
        st.entry_max = 0.0;
        st.reduce_acc = 0.0;
      });
  clock().wait_until(entry_max);
  clock().advance_comm(cost);
  return result;
}

double Comm::allreduce_sum_buffer(double* data, std::int64_t count) {
  if (count < 0) {
    throw std::invalid_argument("sgmpi: negative allreduce count");
  }
  const int q = size();
  if (q == 1 || count == 0) return 0.0;
  auto& st = ctx_->state(state_index_);
  const int me = world_rank();
  const auto unwind = [this, me] { ctx_->unwind_check(me); };
  unwind();
  const double entry = clock().now();
  const double cost = trace::allreduce_cost(
      link(), count * static_cast<std::int64_t>(sizeof(double)), q);

  // Phase 1: every rank stages its contribution in a per-rank slot; the
  // last arrival sums the slots in ascending communicator-rank order.
  // Arrival order is scheduling noise — summing in rank order keeps the
  // reduction bit-deterministic across runs and schedulers.
  const std::size_t ucount = static_cast<std::size_t>(count);
  const int cr = rank();
  st.meeting.rendezvous(
      unwind, ctx_->config.poll_interval_s, q,
      [&] {
        st.entry_max = std::max(st.entry_max, entry);
        if (data != nullptr) {
          if (st.reduce_ranks.empty()) {
            st.gather_buf.assign(static_cast<std::size_t>(q) * ucount, 0.0);
          }
          std::copy(data, data + count,
                    st.gather_buf.begin() +
                        static_cast<std::size_t>(cr) * ucount);
          st.reduce_ranks.push_back(cr);
        }
      },
      [&] {
        if (st.reduce_ranks.empty()) return;
        std::sort(st.reduce_ranks.begin(), st.reduce_ranks.end());
        st.reduce_buf.assign(ucount, 0.0);
        for (const int r : st.reduce_ranks) {
          const double* slot =
              st.gather_buf.data() + static_cast<std::size_t>(r) * ucount;
          for (std::size_t i = 0; i < ucount; ++i) {
            st.reduce_buf[i] += slot[i];
          }
        }
      });

  // Copy the result out before the trailing rendezvous releases the state.
  if (data != nullptr && !st.reduce_buf.empty()) {
    std::copy(st.reduce_buf.begin(), st.reduce_buf.end(), data);
  }

  double entry_max = 0.0;
  st.meeting.rendezvous(
      unwind, ctx_->config.poll_interval_s, q,
      [&] { entry_max = st.entry_max; },
      [&] {
        st.entry_max = 0.0;
        st.reduce_ranks.clear();
        st.gather_buf.clear();
        st.reduce_buf.clear();
      });
  clock().wait_until(entry_max);
  clock().advance_comm(cost);
  if (events().enabled()) {
    events().record({world_rank(), trace::EventKind::kBcast, entry,
                     clock().now(),
                     count * static_cast<std::int64_t>(sizeof(double)), 0,
                     "allreduce"});
  }
  return cost;
}

std::vector<double> Comm::gather(double value, int root) {
  const int q = size();
  validate_root(root, q);
  if (q == 1) return {value};
  auto& st = ctx_->state(state_index_);
  const int me = world_rank();
  const auto unwind = [this, me] { ctx_->unwind_check(me); };
  unwind();
  const double entry = clock().now();
  const double cost =
      trace::bcast_rounds(q) * link().p2p(sizeof(double));
  st.meeting.rendezvous(
      unwind, ctx_->config.poll_interval_s, q,
      [&] {
        st.entry_max = std::max(st.entry_max, entry);
        if (st.gather_buf.size() != static_cast<std::size_t>(q)) {
          st.gather_buf.assign(static_cast<std::size_t>(q), 0.0);
        }
        st.gather_buf[static_cast<std::size_t>(rank_)] = value;
      },
      [] {});
  std::vector<double> result;
  if (rank_ == root) result = st.gather_buf;
  double entry_max = 0.0;
  st.meeting.rendezvous(
      unwind, ctx_->config.poll_interval_s, q,
      [&] { entry_max = st.entry_max; },
      [&] {
        st.entry_max = 0.0;
        st.gather_buf.clear();
      });
  clock().wait_until(entry_max);
  clock().advance_comm(cost);
  return result;
}

void Comm::fault_check() { ctx_->unwind_check(world_rank()); }

double Comm::compute_slowdown() const {
  if (!ctx_->faults) return 1.0;
  return ctx_->faults->compute_factor(world_rank());
}

void Comm::raise_drift() {
  if (!ctx_->faults) {
    throw std::logic_error(
        "sgmpi: raise_drift() requires a fault plan or adaptive mode");
  }
  const double now = clock().now();
  ctx_->faults->raise_drift(world_rank(), now);
  throw PeerFailedError(world_rank(), FaultKind::kDrift, now);
}

ShrinkResult Comm::shrink() {
  if (!ctx_->faults) {
    throw std::logic_error(
        "sgmpi: shrink() requires a fault plan or adaptive mode");
  }
  ShrinkResult result = ctx_->faults->shrink_arrive(
      world_rank(), clock().now(), ctx_->config.poll_interval_s);
  // Virtual cost of the agreement: everyone synchronises at the latest
  // arrival, then pays one allreduce over the survivors (the vote).
  const int live = static_cast<int>(result.survivors.size());
  const double cost =
      live > 1 ? trace::allreduce_cost(ctx_->state(0).link, sizeof(double),
                                       live)
               : 0.0;
  clock().wait_until(result.agree_vtime);
  clock().advance_comm(cost);
  result.agree_vtime += cost;
  return result;
}

double Comm::ft_commit() {
  if (!ctx_->faults) {
    throw std::logic_error(
        "sgmpi: ft_commit() requires a fault plan or adaptive mode");
  }
  const auto [entry_max, live] = ctx_->faults->commit_arrive(
      world_rank(), clock(), ctx_->config.poll_interval_s);
  const double cost =
      live > 1 ? trace::barrier_cost(ctx_->state(0).link, live) : 0.0;
  clock().advance_comm(cost);
  return clock().now();
}

Comm Comm::subgroup(const std::vector<int>& members) {
  if (members.empty()) {
    throw std::invalid_argument("sgmpi: subgroup with no members");
  }
  for (int m : members) {
    if (m < 0 || m >= ctx_->config.nranks) {
      throw std::invalid_argument("sgmpi: subgroup member " +
                                  std::to_string(m) + " is not a world rank");
    }
  }
  std::vector<int> sorted = members;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("sgmpi: subgroup with duplicate members");
  }
  const auto it = std::find(members.begin(), members.end(), world_rank());
  if (it == members.end()) {
    throw std::invalid_argument(
        "sgmpi: calling rank is not a member of the subgroup");
  }
  const std::size_t index = ctx_->subgroup_state(members);
  return Comm(ctx_, index, static_cast<int>(it - members.begin()));
}

}  // namespace summagen::sgmpi

#include "src/core/taskgraph/executor.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

namespace summagen::core::taskgraph {
namespace {

/// Post/complete machinery of the dataflow schedule: this rank's comm
/// nodes, posted in ascending id up to `window` ahead and completed in the
/// same order. Two cursors walk the rank's slice — the next node to post
/// and the next to complete, each parked on a live comm node or at the
/// end — and the posted requests wait in a fixed ring of at most
/// `window` slots.
class CommPipeline {
 public:
  CommPipeline(const TaskGraph& graph, std::span<const int> mine, int window,
               const ExecHooks& hooks)
      : graph_(graph),
        mine_(mine),
        hooks_(hooks),
        depth_(window <= 0 ? std::numeric_limits<std::size_t>::max()
                           : static_cast<std::size_t>(window)),
        ring_(std::max<std::size_t>(1, std::min(depth_, mine.size()))) {
    next_post_ = next_complete_ = skip(0);
  }

  bool exhausted() const { return next_complete_ >= mine_.size(); }

  /// Completes exactly the next comm node in order ("nothing computable —
  /// block on the pipeline head") and returns its id.
  int complete_next() {
    const int id = mine_[next_complete_];
    if (pending_ == 0) post_one();
    complete_one();
    top_up();
    return id;
  }

  void top_up() {
    while (next_post_ < mine_.size() && pending_ < depth_) post_one();
  }

 private:
  /// First position at or after `i` holding a live comm node.
  std::size_t skip(std::size_t i) const {
    while (i < mine_.size()) {
      const TaskNode& n = graph_.node(mine_[i]);
      if (!n.dropped && n.is_comm()) break;
      ++i;
    }
    return i;
  }

  void post_one() {
    const TaskNode& n = graph_.node(mine_[next_post_]);
    next_post_ = skip(next_post_ + 1);
    ring_[(head_ + pending_) % ring_.size()] = hooks_.post_comm(n);
    ++pending_;
  }

  void complete_one() {
    const TaskNode& n = graph_.node(mine_[next_complete_]);
    next_complete_ = skip(next_complete_ + 1);
    sgmpi::Request r = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --pending_;
    hooks_.complete_comm(n, r);
  }

  const TaskGraph& graph_;
  const std::span<const int> mine_;
  const ExecHooks& hooks_;
  const std::size_t depth_;
  std::vector<sgmpi::Request> ring_;
  std::size_t head_ = 0;     ///< ring slot of the oldest posted request
  std::size_t pending_ = 0;  ///< posted, not yet completed
  std::size_t next_post_ = 0;
  std::size_t next_complete_ = 0;
};

void run_program(const TaskGraph& graph, int rank, const ExecHooks& hooks) {
  const auto& nodes = graph.nodes();
  const std::span<const int> mine = graph.rank_nodes(rank);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const TaskNode& n = nodes[static_cast<std::size_t>(mine[i])];
    if (n.dropped) continue;
    if (n.is_comm()) {
      hooks.run_comm(n);
      continue;
    }
    // A local node is a kGemm chunk: fuse the consecutive chunk chain of
    // its op into one whole-kernel call — the historical eager executor's
    // single charge per DGEMM.
    std::size_t count = 1;
    while (i + count < mine.size() &&
           mine[i + count] == n.id + static_cast<int>(count)) {
      const TaskNode& next = nodes[static_cast<std::size_t>(n.id) + count];
      if (next.kind != NodeKind::kGemm || next.payload != n.payload) break;
      ++count;
    }
    hooks.run_fused(n, static_cast<int>(count));
    i += count - 1;
  }
}

void run_dataflow(const TaskGraph& graph, int rank, int window,
                  const ExecHooks& hooks) {
  const auto& nodes = graph.nodes();
  const std::span<const int> mine = graph.rank_nodes(rank);
  CommPipeline pipeline(graph, mine, window, hooks);

  // Per-rank state is indexed by a node's slot in `mine` — sized by the
  // nodes this rank observes (its own local nodes and the comm nodes it
  // participates in), never by the whole p-rank graph.
  const auto slot = [&mine](int id) {
    return static_cast<std::size_t>(
        std::lower_bound(mine.begin(), mine.end(), id) - mine.begin());
  };
  const auto observed = [&](int id) {
    return !nodes[static_cast<std::size_t>(id)].dropped &&
           std::binary_search(mine.begin(), mine.end(), id);
  };
  const auto my_local = [&](const TaskNode& n) {
    return !n.dropped && !n.is_comm() && n.owner == rank;
  };

  // Pending-predecessor counts of my local nodes over their observable
  // predecessors.
  std::vector<int> npred(mine.size(), 0);
  std::set<int> ready;  // my local nodes with all dependencies satisfied
  std::size_t nlocal = 0;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const TaskNode& n = nodes[static_cast<std::size_t>(mine[i])];
    if (!my_local(n)) continue;
    ++nlocal;
    const auto preds = graph.preds(n.id);
    npred[i] = static_cast<int>(
        std::count_if(preds.begin(), preds.end(), observed));
    if (npred[i] == 0) ready.insert(n.id);
  }

  auto finish = [&](int id) {
    for (int s : graph.succs(id)) {
      if (!my_local(nodes[static_cast<std::size_t>(s)])) continue;
      if (--npred[slot(s)] == 0) ready.insert(s);
    }
  };

  pipeline.top_up();
  std::size_t executed = 0;
  while (executed < nlocal || !pipeline.exhausted()) {
    if (!ready.empty()) {
      const int id = *ready.begin();
      ready.erase(ready.begin());
      hooks.run_local(nodes[static_cast<std::size_t>(id)]);
      ++executed;
      finish(id);
      continue;
    }
    if (pipeline.exhausted()) {
      throw std::logic_error(
          "taskgraph: deadlock — local nodes blocked with no comm pending");
    }
    // Nothing computable: block on the pipeline head.
    finish(pipeline.complete_next());
  }
}

}  // namespace

void run_graph(const TaskGraph& graph, int rank, Scheduler schedule,
               int window, const ExecHooks& hooks) {
  if (!hooks.run_local || !hooks.run_comm || !hooks.run_fused ||
      !hooks.post_comm || !hooks.complete_comm) {
    throw std::logic_error("taskgraph: all five ExecHooks are required");
  }
  switch (schedule) {
    case Scheduler::kEager:
      run_program(graph, rank, hooks);
      return;
    case Scheduler::kTaskGraph:
      run_dataflow(graph, rank, window, hooks);
      return;
  }
}

}  // namespace summagen::core::taskgraph

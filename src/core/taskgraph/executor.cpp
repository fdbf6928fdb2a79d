#include "src/core/taskgraph/executor.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

namespace summagen::core::taskgraph {
namespace {

bool member(const TaskNode& n, int rank) {
  return std::find(n.owners.begin(), n.owners.end(), rank) != n.owners.end();
}

/// Post/complete machinery of the dataflow schedule: this rank's comm
/// nodes, posted in ascending id up to `window` ahead and completed in the
/// same order.
class CommPipeline {
 public:
  CommPipeline(const std::vector<TaskNode>& nodes, int rank, int window,
               const ExecHooks& hooks)
      : nodes_(nodes),
        hooks_(hooks),
        depth_(window <= 0 ? std::numeric_limits<std::size_t>::max()
                           : static_cast<std::size_t>(window)) {
    for (const TaskNode& n : nodes) {
      if (!n.dropped && n.is_comm() && member(n, rank)) {
        comms_.push_back(n.id);
      }
    }
  }

  bool exhausted() const { return next_complete_ >= comms_.size(); }
  int next_id() const { return comms_[next_complete_]; }

  /// Completes exactly the next comm node in order ("nothing computable —
  /// block on the pipeline head") and returns its id.
  int complete_next() {
    const int id = comms_[next_complete_];
    while (next_post_ <= next_complete_) post_one();
    complete_one();
    top_up();
    return id;
  }

  void top_up() {
    while (next_post_ < comms_.size() && pending_.size() < depth_) {
      post_one();
    }
  }

 private:
  void post_one() {
    const TaskNode& n =
        nodes_[static_cast<std::size_t>(comms_[next_post_++])];
    pending_.push_back(hooks_.post_comm ? hooks_.post_comm(n)
                                        : sgmpi::Request{});
  }

  void complete_one() {
    const TaskNode& n =
        nodes_[static_cast<std::size_t>(comms_[next_complete_++])];
    sgmpi::Request r = std::move(pending_.front());
    pending_.pop_front();
    if (hooks_.complete_comm) {
      hooks_.complete_comm(n, r);
    } else {
      hooks_.run_comm(n);
    }
  }

  const std::vector<TaskNode>& nodes_;
  const ExecHooks& hooks_;
  const std::size_t depth_;
  std::vector<int> comms_;
  std::deque<sgmpi::Request> pending_;
  std::size_t next_post_ = 0;
  std::size_t next_complete_ = 0;
};

void run_program(const TaskGraph& graph, int rank, const ExecHooks& hooks) {
  const auto& nodes = graph.nodes();
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const TaskNode& n = nodes[id];
    if (n.dropped) continue;
    if (n.is_comm()) {
      if (member(n, rank)) hooks.run_comm(n);
      continue;
    }
    if (n.owner != rank) continue;
    if (n.kind == NodeKind::kGemm && hooks.run_fused) {
      // Fuse the consecutive chunk chain of this op into one whole-kernel
      // call — the historical eager executor's single charge per DGEMM.
      std::size_t count = 1;
      while (id + count < nodes.size() &&
             nodes[id + count].kind == NodeKind::kGemm &&
             nodes[id + count].payload == n.payload) {
        ++count;
      }
      hooks.run_fused(n, static_cast<int>(count));
      id += count - 1;
      continue;
    }
    hooks.run_local(n);
  }
}

void run_dataflow(const TaskGraph& graph, int rank, int window,
                  const ExecHooks& hooks) {
  const auto& nodes = graph.nodes();
  CommPipeline pipeline(nodes, rank, window, hooks);

  // Pending-predecessor counts over the nodes this rank can observe:
  // its own local nodes and the comm nodes it participates in.
  std::vector<int> npred(nodes.size(), 0);
  std::vector<char> done(nodes.size(), 0);
  std::set<int> ready;  // my local nodes with all dependencies satisfied
  std::size_t nlocal = 0;
  for (const TaskNode& n : nodes) {
    if (n.dropped || n.is_comm() || n.owner != rank) continue;
    ++nlocal;
    int cnt = 0;
    for (int p : n.preds) {
      const TaskNode& pn = nodes[static_cast<std::size_t>(p)];
      if (pn.dropped) continue;
      if (pn.is_comm() ? member(pn, rank) : pn.owner == rank) ++cnt;
    }
    npred[static_cast<std::size_t>(n.id)] = cnt;
    if (cnt == 0) ready.insert(n.id);
  }

  auto finish = [&](int id) {
    done[static_cast<std::size_t>(id)] = 1;
    for (int s : nodes[static_cast<std::size_t>(id)].succs) {
      const TaskNode& sn = nodes[static_cast<std::size_t>(s)];
      if (sn.dropped || sn.is_comm() || sn.owner != rank) continue;
      if (--npred[static_cast<std::size_t>(s)] == 0) ready.insert(s);
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
    // Nothing computable: block on the pipeline head. Guard the graphs
    // whose comm nodes have local predecessors (workspace write-after-read
    // in the step chains): completing such a node early would corrupt the
    // workspace a pending GEMM still reads.
    const TaskNode& head =
        nodes[static_cast<std::size_t>(pipeline.next_id())];
    for (int p : head.preds) {
      const TaskNode& pn = nodes[static_cast<std::size_t>(p)];
      if (!pn.dropped && !pn.is_comm() && pn.owner == rank &&
          !done[static_cast<std::size_t>(p)]) {
        throw std::logic_error(
            "taskgraph: comm node ordered before its local predecessor");
      }
    }
    finish(pipeline.complete_next());
  }
}

}  // namespace

void run_graph(const TaskGraph& graph, int rank, Scheduler schedule,
               int window, const ExecHooks& hooks) {
  if (!hooks.run_local || !hooks.run_comm) {
    throw std::logic_error("taskgraph: run_local and run_comm are required");
  }
  if (static_cast<bool>(hooks.post_comm) !=
      static_cast<bool>(hooks.complete_comm)) {
    throw std::logic_error(
        "taskgraph: post_comm and complete_comm must be provided together");
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

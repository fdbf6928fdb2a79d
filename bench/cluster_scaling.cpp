// Extension bench: SummaGen on distributed-memory clusters — the paper's
// closing future-work item ("we will study the efficiency of SummaGen for
// distributed-memory nodes and large clusters").
//
// Strong scaling of one PMM across simulated nodes connected by a slower
// network link. Several partitioners drive the layouts, all executed by the
// same SummaGen core: NRRP (non-rectangular recursive), hierarchical
// (one rectangle per node, shapes within), the Beaumont column-based
// rectangular baseline, and traditional 1D slices.
//
// Speedup and efficiency come from core::ScalingTable, which insists on a
// true single-node baseline per configuration: when --nodes omits 1, the
// bench measures nodes=1 itself rather than fabricating a baseline from the
// smallest swept count (the historical bug this bench shipped with).
//
// Flags: --n 30720  --nodes 1,2,4  --net-gbps 12.5
//        --node-procs 0   (0 = heterogeneous HCLServer1 node, 3 procs;
//                          K>0 = K identical procs per node — with
//                          --node-procs 4, --nodes 256/1024 gives the
//                          p=1024/4096 scale-out points)
//        --engine thread|modeled   (modeled = fibers, cheap at large p)
//        --scheduler eager|taskgraph   (taskgraph = dataflow overlap)
//        --bcast-algo tree|flat|ring|pipelined|auto
//        --two-level               (topology-aware two-stage collectives)
//        --partitioners nrrp,hierarchical,column_based,one_dimensional
//        --json FILE               (Google-Benchmark format for
//                                   tools/compare_bench.py)
// (12.5 GB/s ~ EDR InfiniBand; try --net-gbps 1 for an Ethernet-class
// network where communication caps scaling and 1D collapses first)
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/core/runner.hpp"
#include "src/core/scaling.hpp"
#include "src/partition/column_based.hpp"
#include "src/partition/nrrp.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

using namespace summagen;

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  for (char c : csv) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

using summagen::benchjson::JsonEntry;

partition::PartitionSpec build_spec(const std::string& name, std::int64_t n,
                                    const std::vector<std::int64_t>& areas,
                                    std::int64_t nodes,
                                    std::size_t procs_per_node) {
  if (name == "nrrp") return partition::nrrp_partition(n, areas);
  if (name == "hierarchical") {
    // One rectangle per node, SummaGen shapes within.
    std::vector<std::vector<std::int64_t>> by_node;
    for (std::int64_t node = 0; node < nodes; ++node) {
      std::vector<std::int64_t> group;
      for (std::size_t i = 0; i < procs_per_node; ++i) {
        group.push_back(
            areas[static_cast<std::size_t>(node) * procs_per_node + i]);
      }
      by_node.push_back(std::move(group));
    }
    return partition::nrrp_hierarchical(n, by_node);
  }
  if (name == "column_based") {
    return partition::column_based_partition(n, areas);
  }
  if (name == "one_dimensional") {
    return partition::build_shape(partition::Shape::kOneDimensional, n, areas);
  }
  throw util::CliError("unknown --partitioners entry '" + name +
                       "' (expected nrrp, hierarchical, column_based or "
                       "one_dimensional)");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  std::int64_t n = 0;
  std::vector<std::int64_t> node_counts;
  double net_gbps = 0.0;
  std::int64_t node_procs = 0;
  std::vector<std::string> partitioners;
  sgmpi::Engine engine = sgmpi::Engine::kThread;
  core::Scheduler scheduler = core::Scheduler::kEager;
  trace::BcastAlgo bcast_algo = trace::BcastAlgo::kTree;
  bool two_level = false;
  try {
    n = cli.get_int_min("n", 30720, 1);
    node_counts = cli.get_int_list("nodes", {1, 2, 4});
    net_gbps = cli.get_double("net-gbps", 12.5);
    node_procs = cli.get_int_min("node-procs", 0, 0);
    partitioners = split_csv(cli.get(
        "partitioners", "nrrp,hierarchical,column_based,one_dimensional"));
    engine = sgmpi::parse_engine(cli.get("engine", "thread"));
    try {
      scheduler = core::parse_scheduler(cli.get("scheduler", "eager"));
    } catch (const std::invalid_argument& e) {
      throw util::CliError(std::string("--scheduler: ") + e.what());
    }
    bcast_algo = trace::parse_bcast_algo(cli.get("bcast-algo", "tree"));
    two_level = cli.get_bool("two-level", false);
  } catch (const std::exception& e) {
    std::cerr << "cluster_scaling: " << e.what() << "\n";
    return 2;
  }
  if (partitioners.empty()) {
    std::cerr << "cluster_scaling: --partitioners selected nothing\n";
    return 2;
  }

  const auto base = node_procs > 0
                        ? device::Platform::homogeneous(
                              static_cast<int>(node_procs))
                        : device::Platform::hclserver1();
  // Per-node speeds: the paper's readout for HCLServer1, flat for the
  // homogeneous scale-out node.
  const std::vector<double> node_speeds =
      node_procs > 0 ? std::vector<double>(
                           static_cast<std::size_t>(node_procs), 1.0)
                     : std::vector<double>{1.0, 2.0, 0.9};
  const trace::HockneyParams net{20.0e-6, 1.0 / (net_gbps * 1.0e9)};

  // Every configuration needs a true single-node measurement — measure it
  // even when the sweep starts above one node.
  std::vector<std::int64_t> sweep = node_counts;
  bool baseline_added = false;
  if (std::find(sweep.begin(), sweep.end(), std::int64_t{1}) == sweep.end()) {
    sweep.insert(sweep.begin(), 1);
    baseline_added = true;
  }

  core::ScalingTable table;
  std::vector<JsonEntry> json_rows;

  for (std::int64_t nodes : sweep) {
    const auto platform =
        device::Platform::cluster(base, static_cast<int>(nodes), net);
    const int p = platform.nprocs();

    std::vector<double> speeds;
    for (std::int64_t node = 0; node < nodes; ++node) {
      speeds.insert(speeds.end(), node_speeds.begin(), node_speeds.end());
    }
    const auto areas = partition::partition_areas_cpm(n * n, speeds);

    for (const std::string& name : partitioners) {
      partition::PartitionSpec spec;
      try {
        spec = build_spec(name, n, areas, nodes, node_speeds.size());
      } catch (const util::CliError& e) {
        std::cerr << "cluster_scaling: " << e.what() << "\n";
        return 2;
      }
      core::ExperimentConfig config;
      config.platform = platform;
      config.n = n;
      config.preset_spec = spec;
      config.engine = engine;
      config.summagen_options.scheduler = scheduler;
      config.bcast_algo = bcast_algo;
      config.two_level_collectives = two_level;
      const auto res = core::run_pmm(config);

      core::ScalingMeasurement m;
      m.name = name;
      m.nodes = nodes;
      m.ranks = p;
      m.exec_s = res.exec_time_s;
      m.comp_s = res.comp_time_s;
      m.comm_s = res.comm_time_s;
      table.add(m);
      json_rows.push_back({"cluster_scaling/" + name +
                               "/nodes:" + std::to_string(nodes) +
                               "/p:" + std::to_string(p),
                           res.exec_time_s});
    }
  }

  table
      .render("Strong scaling across cluster nodes, N=" + std::to_string(n) +
              ", " + std::to_string(node_speeds.size()) + " procs/node, " +
              "network " + util::Table::num(net_gbps, 1) + " GB/s, engine " +
              sgmpi::to_string(engine) + ", scheduler " +
              core::to_string(scheduler) + ", bcast " +
              trace::to_string(bcast_algo))
      .print(std::cout);
  if (baseline_added) {
    std::cout << "\n(nodes=1 measured as the speedup baseline; it was not in "
                 "--nodes)\n";
  }
  std::cout << "\nspeedup is relative to the true single-node run of the same "
               "partitioner; hierarchical (one rectangle per node, "
               "non-rectangular shapes within) keeps cross-node traffic "
               "lowest, 1D degrades first.\n";

  if (cli.has("json")) {
    benchjson::write_json(cli.get("json", ""), "cluster_scaling", json_rows);
  }
  return 0;
}

// summagen_cli — the library as a command-line tool.
//
// Runs one PMM on the simulated HCLServer1 from either a shape name or a
// partition file in the paper's array notation, with optional numeric
// verification, energy accounting, a Gantt chart of the schedule, and
// spec export.
//
//   $ ./summagen_cli --n 1024 --shape square_corner --speeds 1,2,0.9
//   $ ./summagen_cli --n 1024 --shape block_rectangle --save-spec out.spec
//   $ ./summagen_cli --spec out.spec --numeric --gantt
//   $ ./summagen_cli --n 8192 --regime fpm --energy
#include <cstdio>
#include <fstream>
#include <iostream>

#include "src/blas/fastmm.hpp"
#include "src/core/runner.hpp"
#include "src/mpi/faults.hpp"
#include "src/partition/spec_io.hpp"
#include "src/trace/gantt.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

void usage() {
  std::cout <<
      "summagen_cli — run one PMM on the simulated heterogeneous node\n"
      "  --n N              matrix size (default 1024; ignored with --spec)\n"
      "  --shape NAME       square_corner | square_rectangle |\n"
      "                     block_rectangle | one_dimensional | l_rectangle |\n"
      "                     layered\n"
      "  --spec FILE        run a partition file instead of building a shape\n"
      "  --regime cpm|fpm   workload partitioning regime (default cpm)\n"
      "  --speeds a,b,c     CPM speeds (default 1.0,2.0,0.9)\n"
      "  --numeric          really multiply and verify (n <= 8192)\n"
      "  --kernel NAME      numeric DGEMM kernel: packed (default) | naive\n"
      "  --kernel-threads N shared compute-pool size override (0 = auto:\n"
      "                     hardware threads minus the one thread that\n"
      "                     runs every rank as a fiber)\n"
      "  --simd-tier T      packed microkernel tier: auto (default) |\n"
      "                     scalar | sse2 | avx2 (explicit unavailable\n"
      "                     tiers fail; SUMMAGEN_FORCE_SCALAR=1 caps auto)\n"
      "  --fastmm KIND      Strassen-family fast MM over the kernel:\n"
      "                     classical (default) | strassen | s223 | auto.\n"
      "                     Norm-bound accurate, not bit-identical; refused\n"
      "                     with --fault / --repartition\n"
      "  --fastmm-crossover X  smallest fast sub-block edge (0 = auto:\n"
      "                     tuned cache else 512)\n"
      "  --fastmm-max-depth D  fast recursion depth cap (default 3)\n"
      "  --scheduler NAME   eager | taskgraph (default eager)\n"
      "  --bcast-algo NAME  collective pricing: tree (default) | flat |\n"
      "                     ring | pipelined | auto\n"
      "  --two-level        price collectives as inter-node stage over\n"
      "                     node leaders plus widest intra-node stage\n"
      "  --overlap-depth D  in-flight broadcast window (>= 0, 0 = unbounded):\n"
      "                     the task graph's posted-ahead window (--window\n"
      "                     is an alias)\n"
      "  --panel-rows R     broadcast panel rows, 0 = whole sub-partitions\n"
      "  --fault LIST       inject faults: <kind>@<t>:<rank>[x<arg>], e.g.\n"
      "                     crash@0.5:1 | slow@0.5:1x4 | link@0.2:0x8\n"
      "                     (comma-separated list)\n"
      "  --fault-detect S   failure-detection latency in seconds (0.05)\n"
      "  --drift LIST       time-varying device speeds:\n"
      "                     <kind>@<t>:<rank>[x<factor>][/<arg>], e.g.\n"
      "                     step@0.5:1x2.5 | ramp@0.5:1x3/0.2 |\n"
      "                     periodic@0:2x2/0.1 (comma-separated list)\n"
      "  --repartition OPT  online drift re-partitioning: on | off (default)\n"
      "                     or key=value list over threshold, hysteresis,\n"
      "                     alpha, warmup, budget (implies on)\n"
      "  --energy           record events and report dynamic energy\n"
      "  --gantt            print the schedule as a Gantt chart\n"
      "  --chrome-trace F   write the schedule as Chrome trace JSON\n"
      "  --render           print the partition layout\n"
      "  --save-spec FILE   export the layout in the paper's notation\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace summagen;
  const util::Cli cli(argc, argv);
  if (cli.get_bool("help", false)) {
    usage();
    return 0;
  }

  core::ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.numeric = cli.get_bool("numeric", false);
  config.record_events = cli.get_bool("energy", false) ||
                         cli.get_bool("gantt", false) ||
                         cli.has("chrome-trace");

  try {
    try {
      config.summagen_options.scheduler =
          core::parse_scheduler(cli.get("scheduler", "eager"));
    } catch (const std::invalid_argument& e) {
      throw util::CliError(std::string("--scheduler: ") + e.what());
    }
    // --overlap-depth and --window name the same quantity: the bound on
    // posted-but-uncompleted broadcasts (the task graph's in-flight
    // window).
    if (cli.has("overlap-depth") && cli.has("window")) {
      throw util::CliError("--window is an alias of --overlap-depth; "
                           "pass only one");
    }
    config.summagen_options.overlap_depth = static_cast<int>(
        cli.has("window") ? cli.get_int_min("window", 2, 0)
                          : cli.get_int_min("overlap-depth", 2, 0));
    config.summagen_options.bcast_panel_rows = cli.get_int("panel-rows", 0);
    try {
      config.bcast_algo =
          trace::parse_bcast_algo(cli.get("bcast-algo", "tree"));
    } catch (const std::invalid_argument& e) {
      throw util::CliError(std::string("--bcast-algo: ") + e.what());
    }
    config.two_level_collectives = cli.get_bool("two-level", false);
    const std::string kernel = cli.get("kernel", "packed");
    if (kernel == "packed") {
      config.kernel.kernel = blas::GemmKernel::kPacked;
    } else if (kernel == "naive") {
      config.kernel.kernel = blas::GemmKernel::kNaive;
    } else {
      std::cerr << "unknown kernel '" << kernel << "'\n";
      usage();
      return 2;
    }
    config.kernel.threads =
        static_cast<int>(cli.get_int_min("kernel-threads", 0, 0));
    try {
      config.kernel.fastmm =
          blas::parse_fastmm_kind(cli.get("fastmm", "classical"));
    } catch (const std::invalid_argument& e) {
      throw util::CliError(std::string("--fastmm: ") + e.what());
    }
    config.kernel.fastmm_crossover =
        cli.get_int_min("fastmm-crossover", 0, 0);
    config.kernel.fastmm_max_depth =
        static_cast<int>(cli.get_int_min("fastmm-max-depth", 3, 0));
    try {
      config.kernel.tier = blas::parse_simd_tier(cli.get("simd-tier", "auto"));
    } catch (const std::invalid_argument& e) {
      throw util::CliError(std::string("--simd-tier: ") + e.what());
    }
    if (cli.has("fault")) {
      config.faults = sgmpi::parse_fault_plan(cli.get("fault", ""));
    }
    // Detection latency also prices how fast a confirmed drift surfaces to
    // the peers, so it applies to --repartition runs without --fault.
    config.fault_detect_s = cli.get_double("fault-detect", 0.05);
    if (cli.has("drift")) {
      try {
        config.drift = core::parse_drift_plan(cli.get("drift", ""));
      } catch (const partition::SpecParseError& e) {
        throw util::CliError("--drift: event " + std::to_string(e.line()) +
                             ", field '" + e.key() + "': " + e.what());
      }
    }
    if (cli.has("repartition")) {
      try {
        config.repartition =
            core::parse_repartition_options(cli.get("repartition", ""));
      } catch (const partition::SpecParseError& e) {
        throw util::CliError("--repartition: item " +
                             std::to_string(e.line()) + ", key '" + e.key() +
                             "': " + e.what());
      }
    }

    if (cli.has("spec")) {
      config.preset_spec = partition::load_spec(cli.get("spec", ""));
      config.n = config.preset_spec.n;
    } else {
      config.n = cli.get_int("n", 1024);
      const std::string shape = cli.get("shape", "square_corner");
      bool found = false;
      for (partition::Shape s : partition::extended_shapes()) {
        if (shape == partition::shape_name(s)) {
          config.shape = s;
          found = true;
        }
      }
      if (!found) {
        std::cerr << "unknown shape '" << shape << "'\n";
        usage();
        return 2;
      }
      if (cli.get("regime", "cpm") == "fpm") {
        config.regime = core::Regime::kFunctional;
      } else {
        config.cpm_speeds = cli.get_double_list("speeds", {1.0, 2.0, 0.9});
      }
    }

    const auto res = core::run_pmm(config);

    if (cli.get_bool("render", false)) {
      std::cout << res.spec.render(
                       std::max<std::int64_t>(1, config.n / 32))
                << "\n";
    }

    util::Table t("summagen_cli: N=" + std::to_string(config.n));
    t.set_header({"metric", "value"});
    t.add_row({"execution time (s)", util::Table::num(res.exec_time_s, 4)});
    t.add_row({"computation time (s)", util::Table::num(res.comp_time_s, 4)});
    t.add_row({"MPI time (s)", util::Table::num(res.comm_time_s, 4)});
    if (config.summagen_options.scheduler != core::Scheduler::kEager) {
      t.add_row({"hidden comm (s)",
                 util::Table::num(res.hidden_comm_time_s, 4)});
    }
    t.add_row({"TFLOPs", util::Table::num(res.tflops, 3)});
    t.add_row({"sum of half-perimeters",
               util::Table::num(res.total_half_perimeter)});
    if (res.has_energy) {
      t.add_row({"dynamic energy (kJ)",
                 util::Table::num(res.energy.dynamic_j / 1e3, 3)});
    }
    if (!config.faults.empty()) {
      t.add_row({"recoveries", std::to_string(res.recoveries)});
      t.add_row({"detection latency (s)",
                 util::Table::num(res.detection_latency_s, 4)});
      t.add_row({"recovery virtual time (s)",
                 util::Table::num(res.recovery_vtime_s, 4)});
      t.add_row({"redistributed C area",
                 util::Table::num(res.redistributed_area)});
    }
    if (config.repartition.enabled) {
      t.add_row({"re-partitions", std::to_string(res.repartitions.size())});
    }
    if (config.numeric) {
      t.add_row({"verified vs reference", res.verified ? "yes" : "NO"});
      // Exact bits beside the readable value, so two builds' verify can be
      // compared from their output alone.
      char error[64];
      std::snprintf(error, sizeof error, "%.6e (%a)", res.max_abs_error,
                    res.max_abs_error);
      t.add_row({"max |C - C_ref|", error});
      char tolerance[32];
      std::snprintf(tolerance, sizeof tolerance, "%.6e", res.tolerance);
      t.add_row({"tolerance", tolerance});
      t.add_row({"data-plane alloc (MiB)",
                 util::Table::num(
                     static_cast<double>(res.alloc.alloc_bytes) / 1048576.0,
                     2)});
      t.add_row({"data-plane allocs", util::Table::num(res.alloc.allocs)});
      t.add_row({"copied (MiB)",
                 util::Table::num(
                     static_cast<double>(res.alloc.copy_bytes) / 1048576.0,
                     2)});
      t.add_row({"copy calls", util::Table::num(res.alloc.copy_calls)});
      t.add_row({"pool hit rate",
                 util::Table::num(res.alloc.pool_hit_rate(), 3)});
      t.add_row({"pool peak resident (MiB)",
                 util::Table::num(
                     static_cast<double>(res.alloc.pool_peak_resident_bytes) /
                         1048576.0,
                     2)});
      if (config.kernel.fastmm != blas::FastMmKind::kClassical ||
          res.alloc.fastmm_leases > 0) {
        t.add_row({"fast-MM kind",
                   blas::fastmm_kind_name(config.kernel.fastmm)});
        t.add_row({"fast-MM leases",
                   util::Table::num(res.alloc.fastmm_leases)});
        t.add_row({"fast-MM leased (MiB)",
                   util::Table::num(
                       static_cast<double>(res.alloc.fastmm_bytes) /
                           1048576.0,
                       2)});
      }
    }
    t.print(std::cout);

    for (const auto& rec : res.fault_records) {
      std::cout << "fault: " << sgmpi::fault_kind_name(rec.event.kind)
                << " rank " << rec.event.rank << " @"
                << rec.event.at_vtime << "s — "
                << (rec.handled
                        ? "handled"
                        : rec.triggered ? "triggered" : "never triggered")
                << "\n";
    }
    for (const auto& ev : res.repartitions) {
      std::cout << "repartition: epoch " << ev.epoch << " ("
                << core::repartition_family_name(ev.family)
                << ") — confirmed by rank " << ev.trigger_rank << " @"
                << util::Table::num(ev.trigger_vtime, 4) << "s, "
                << ev.redone_cells << " cells / " << ev.redone_area
                << " area redistributed, measured speeds {";
      for (std::size_t s = 0; s < ev.measured_speeds.size(); ++s) {
        std::cout << (s ? ", " : "")
                  << util::Table::num(ev.measured_speeds[s], 3);
      }
      std::cout << "}\n";
    }

    if (cli.get_bool("gantt", false)) {
      std::cout << "\n" << trace::render_gantt(res.events, res.exec_time_s);
    }
    if (cli.has("chrome-trace")) {
      std::ofstream out(cli.get("chrome-trace", ""));
      if (!out) throw std::runtime_error("cannot open chrome-trace file");
      out << trace::export_chrome_trace(res.events);
      std::cout << "\nschedule written to " << cli.get("chrome-trace", "")
                << " (open in chrome://tracing)\n";
    }
    if (cli.has("save-spec")) {
      partition::save_spec(cli.get("save-spec", ""), res.spec);
      std::cout << "\nlayout written to " << cli.get("save-spec", "") << "\n";
    }
    return (config.numeric && !res.verified) ? 1 : 0;
  } catch (const util::CliError& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

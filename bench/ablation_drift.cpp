// Ablation: dynamic load drift — static plan vs online re-partitioning.
//
// For each paper shape the bench runs the drift-free baseline, then injects
// a time-varying slowdown of one rank (step / ramp / periodic profiles,
// DESIGN.md §5.13) and measures the same problem twice: limping along under
// the static partition, and with the online drift detector + mid-run
// re-partitioning enabled (--repartition on). The adaptive run sheds the
// victim's remaining compute once drift is confirmed, re-derives the
// partition from live-measured speeds, and re-executes only the unfinished
// cells.
//
// Acceptance bars:
//  * under the sustained step slowdown the online run beats the static one
//    on at least --min-wins (default 3) of the four shapes;
//  * with no drift injected, enabling the detector costs at most
//    --max-clean-overhead (default 1.05) times the clean time on every
//    shape (the detector is observation-only; the only modeled cost is the
//    fault-tolerant commit gate);
//  * a small numeric run (--verify-n) with drift + re-partitioning still
//    verifies against the serial reference on every shape.
//
// Flags: --n 2048  --victim 1  --factor 2.5  --at-frac 0.3
//        --panel-rows 64  --budget 1  --verify-n 192  --min-wins 3
//        --max-clean-overhead 1.05  --json FILE (Google-Benchmark JSON for
//        tools/compare_bench.py, see bench/BENCH_drift.json)
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/core/runner.hpp"
#include "src/device/drift.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

summagen::core::ExperimentConfig base_config(std::int64_t n,
                                             summagen::partition::Shape shape,
                                             std::int64_t panel_rows) {
  summagen::core::ExperimentConfig config;
  config.platform = summagen::device::Platform::hclserver1();
  config.n = n;
  config.shape = shape;
  config.regime = summagen::core::Regime::kConstant;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  // Chunked dataflow execution: the detector sees one observation per
  // DGEMM chunk, so confirmation lands within a few panels of the drift.
  config.summagen_options.scheduler = summagen::core::Scheduler::kTaskGraph;
  config.summagen_options.bcast_panel_rows = panel_rows;
  return config;
}

summagen::device::DriftPlan one_drift(summagen::device::DriftKind kind,
                                      int rank, double at, double factor,
                                      double arg) {
  summagen::device::DriftEvent ev;
  ev.kind = kind;
  ev.rank = rank;
  ev.at_vtime = at;
  ev.factor = factor;
  if (kind == summagen::device::DriftKind::kRamp) ev.duration_s = arg;
  if (kind == summagen::device::DriftKind::kPeriodic) ev.period_s = arg;
  return summagen::device::DriftPlan{{ev}};
}

using summagen::benchjson::JsonEntry;

}  // namespace

int main(int argc, char** argv) {
  using namespace summagen;
  const util::Cli cli(argc, argv);
  const std::int64_t n = cli.get_int("n", 2048);
  const int victim = static_cast<int>(cli.get_int("victim", 1));
  const double factor = cli.get_double("factor", 2.5);
  const double at_frac = cli.get_double("at-frac", 0.3);
  const std::int64_t panel_rows = cli.get_int("panel-rows", 64);
  const int budget = static_cast<int>(cli.get_int("budget", 1));
  // Chunk counts per rank vary a lot across shapes (one_dimensional gives a
  // rank only a handful of observations), so the bench arms a fast but
  // still debounced detector.
  const int warmup = static_cast<int>(cli.get_int("warmup", 1));
  const int hysteresis = static_cast<int>(cli.get_int("hysteresis", 2));
  const std::int64_t verify_n = cli.get_int("verify-n", 192);
  const int min_wins = static_cast<int>(cli.get_int("min-wins", 3));
  const double max_clean_overhead = cli.get_double("max-clean-overhead", 1.05);
  const bool csv = cli.get_bool("csv", false);

  const auto& shapes = partition::all_shapes();

  util::Table t("Drift ablation, CPM, N=" + std::to_string(n) + ", rank " +
                std::to_string(victim) + " x" + util::Table::num(factor, 1));
  t.set_header({"shape", "drift", "static_s", "online_s", "saving_%",
                "reparts", "family", "redone"});

  struct Kind {
    const char* name;
    device::DriftKind kind;
  };
  const Kind kinds[] = {
      {"step", device::DriftKind::kStep},
      {"ramp", device::DriftKind::kRamp},
      {"periodic", device::DriftKind::kPeriodic},
  };

  int step_wins = 0;
  std::vector<JsonEntry> json_rows;
  bool clean_overhead_ok = true;
  for (auto shape : shapes) {
    const auto clean = core::run_pmm(base_config(n, shape, panel_rows));
    const double t0 = clean.exec_time_s;

    // Clean-run overhead of arming the detector (no drift injected).
    {
      core::ExperimentConfig config = base_config(n, shape, panel_rows);
      config.repartition.enabled = true;
      config.repartition.max_repartitions = budget;
      config.repartition.warmup_steps = warmup;
      config.repartition.hysteresis = hysteresis;
      config.fault_detect_s = 0.02 * t0;
      const auto adaptive = core::run_pmm(config);
      if (adaptive.exec_time_s > max_clean_overhead * t0 ||
          !adaptive.repartitions.empty()) {
        clean_overhead_ok = false;
      }
      json_rows.push_back({std::string("drift/") +
                               partition::shape_name(shape) + "/none/online",
                           adaptive.exec_time_s});
    }

    for (const Kind& k : kinds) {
      // Step holds the slowdown from at_frac*t0; the ramp reaches it over
      // 20% of the run; the periodic profile alternates with a half-run
      // period, so the victim is slow half of the time.
      const double at =
          k.kind == device::DriftKind::kPeriodic ? 0.0 : at_frac * t0;
      const double arg = k.kind == device::DriftKind::kRamp ? 0.2 * t0
                                                            : 0.5 * t0;
      const auto plan = one_drift(k.kind, victim, at, factor, arg);

      core::ExperimentConfig fixed = base_config(n, shape, panel_rows);
      fixed.drift = plan;
      const auto static_run = core::run_pmm(fixed);

      core::ExperimentConfig online = fixed;
      online.repartition.enabled = true;
      online.repartition.max_repartitions = budget;
      online.repartition.warmup_steps = warmup;
      online.repartition.hysteresis = hysteresis;
      online.fault_detect_s = 0.02 * t0;
      const auto online_run = core::run_pmm(online);

      const double saving =
          100.0 * (1.0 - online_run.exec_time_s / static_run.exec_time_s);
      if (k.kind == device::DriftKind::kStep &&
          online_run.exec_time_s < static_run.exec_time_s) {
        ++step_wins;
      }
      std::string family = "-";
      std::int64_t redone = 0;
      for (const auto& ev : online_run.repartitions) {
        family = core::repartition_family_name(ev.family);
        redone += ev.redone_area;
      }
      t.add_row({partition::shape_name(shape), k.name,
                 util::Table::num(static_run.exec_time_s, 4),
                 util::Table::num(online_run.exec_time_s, 4),
                 util::Table::num(saving, 1),
                 std::to_string(online_run.repartitions.size()), family,
                 util::Table::num(redone)});
      const std::string key = std::string("drift/") +
                              partition::shape_name(shape) + "/" + k.name;
      json_rows.push_back({key + "/static", static_run.exec_time_s});
      json_rows.push_back({key + "/online", online_run.exec_time_s});
    }
  }
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  std::cout << "\nOnline beats static under the step slowdown on "
            << step_wins << "/" << shapes.size() << " shapes (need >= "
            << min_wins << ")\n";
  std::cout << "Clean-run detector overhead <= "
            << util::Table::num(max_clean_overhead, 2)
            << "x on every shape: " << (clean_overhead_ok ? "yes" : "NO")
            << "\n";

  // Numeric cross-check: drift + online re-partitioning must leave C
  // exactly matching the serial reference (two partition epochs, shed
  // compute re-executed by the new owners).
  std::cout << "\nNumeric verification (N=" << verify_n << "):\n";
  bool all_verified = true;
  for (auto shape : shapes) {
    core::ExperimentConfig probe = base_config(verify_n, shape, 48);
    probe.numeric = true;
    const double t0 = core::run_pmm(probe).exec_time_s;

    core::ExperimentConfig config = probe;
    config.drift = one_drift(device::DriftKind::kStep, victim, 0.0, 3.0, 0.0);
    config.repartition.enabled = true;
    config.repartition.max_repartitions = budget;
    config.repartition.warmup_steps = warmup;
    config.repartition.hysteresis = hysteresis;
    config.fault_detect_s = 0.02 * t0;
    const auto res = core::run_pmm(config);
    const bool ok = res.verified && !res.repartitions.empty();
    all_verified = all_verified && ok;
    std::cout << "  " << partition::shape_name(shape)
              << ": verified=" << (ok ? "yes" : "NO")
              << " repartitions=" << res.repartitions.size()
              << " max_abs_error=" << res.max_abs_error << "\n";
  }

  if (cli.has("json")) {
    benchjson::write_json(cli.get("json", ""), "ablation_drift", json_rows);
  }
  return step_wins >= min_wins && clean_overhead_ok && all_verified ? 0 : 1;
}

// Ablation: FPM partitioner grid step vs solution quality and cost.
//
// The load-imbalancing partitioner (DESIGN.md §5.5) solves a DP over a
// quantised workload grid and then refines locally. A coarser grid is
// faster but risks missing the narrow performance troughs that make load
// *imbalancing* profitable. This sweep quantifies that trade-off.
//
// Flags: --n 16384  --divisors 64,128,256,512,1024,2048,4096
#include <chrono>
#include <iostream>
#include <vector>

#include "src/core/runner.hpp"
#include "src/partition/areas.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace summagen;
  const util::Cli cli(argc, argv);
  const std::int64_t n = cli.get_int("n", 16384);
  const auto divisors = cli.get_int_list(
      "divisors", {64, 128, 256, 512, 1024, 2048, 4096});

  const auto platform = device::Platform::hclserver1();
  const auto models = core::default_fpm_models(platform, n);
  std::vector<const device::SpeedFunction*> ptrs;
  for (const auto& m : models) ptrs.push_back(&m);

  util::Table t("FPM partitioner: grid step vs makespan, N=" +
                std::to_string(n));
  t.set_header({"grid_slots", "step_elems", "tcomp_s", "vs_best_%",
                "solve_ms", "areas"});

  struct Row {
    std::int64_t slots, step;
    double tcomp, ms;
    std::vector<std::int64_t> areas;
  };
  std::vector<Row> rows;
  double best = -1.0;
  for (std::int64_t d : divisors) {
    partition::FpmOptions opts;
    opts.grid_step = std::max<std::int64_t>(1, n * n / d);
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = partition::partition_areas_fpm(n, ptrs, opts);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    rows.push_back({d, opts.grid_step, res.tcomp, ms, res.areas});
    if (best < 0 || res.tcomp < best) best = res.tcomp;
  }
  for (const auto& r : rows) {
    std::string areas;
    for (std::size_t i = 0; i < r.areas.size(); ++i) {
      if (i) areas += "/";
      areas += std::to_string(r.areas[i]);
    }
    t.add_row({util::Table::num(r.slots), util::Table::num(r.step),
               util::Table::num(r.tcomp, 5),
               util::Table::num(100.0 * (r.tcomp - best) / best, 2),
               util::Table::num(r.ms, 1), areas});
  }
  t.print(std::cout);

  // Reference: the proportional (CPM-style) distribution evaluated under
  // the same FPMs, showing what load *balancing* would cost.
  const auto cpm_areas = partition::partition_areas_cpm(
      n * n, core::default_cpm_speeds(platform));
  const double cpm_t = partition::distribution_time(n, ptrs, cpm_areas);
  std::cout << "\nproportional (constant-speed) distribution under the same "
               "FPMs: tcomp = "
            << util::Table::num(cpm_t, 5) << " s ("
            << util::Table::num(100.0 * (cpm_t - best) / best, 1)
            << "% worse than the best imbalanced solution)\n";
  return 0;
}

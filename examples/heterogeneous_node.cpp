// Tour of the simulated heterogeneous node: device inventory, speed
// profiles, and a paper-scale PMM on the modeled plane with a per-rank
// timeline excerpt — the workflow of the paper's Section VI at a glance.
//
//   $ ./heterogeneous_node [--n 30720] [--shape square_rectangle]
#include <iostream>
#include <string>

#include "src/core/runner.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace summagen;
  const util::Cli cli(argc, argv);

  const auto platform = device::Platform::hclserver1();
  std::cout << "Platform: " << platform.name << " — "
            << platform.theoretical_peak_flops() / 1e12
            << " TFLOPs theoretical peak\n\n";
  for (const auto& d : platform.devices) {
    std::cout << "  " << d.name << "\n    kind: " << device::to_string(d.kind)
              << ", peak " << d.peak_flops / 1e12 << " TFLOPs, memory "
              << (d.memory_bytes >> 30) << " GiB"
              << (d.needs_staging ? ", staged over PCIe" : "") << "\n";
  }

  // Mini Figure 5: contended speeds at a few representative sizes.
  std::cout << "\nContended speed profiles (TFLOPs):\n";
  util::Table t("speeds");
  t.set_header({"edge", "AbsCPU", "AbsGPU", "AbsXeonPhi"});
  const std::vector<double> edges = {512, 2048, 8192, 16384, 24576};
  const auto profiles = platform.profiles(edges);
  for (double e : edges) {
    t.add_row({util::Table::num(static_cast<std::int64_t>(e)),
               util::Table::num(profiles[0].flops_at_edge(e) / 1e12, 3),
               util::Table::num(profiles[1].flops_at_edge(e) / 1e12, 3),
               util::Table::num(profiles[2].flops_at_edge(e) / 1e12, 3)});
  }
  t.print(std::cout);

  // One paper-scale run on the modeled plane.
  core::ExperimentConfig config;
  config.platform = platform;
  config.n = cli.get_int("n", 30720);
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.record_events = true;
  const std::string shape = cli.get("shape", "square_rectangle");
  for (partition::Shape s : partition::all_shapes()) {
    if (shape == partition::shape_name(s)) config.shape = s;
  }

  std::cout << "\nRunning SummaGen: N=" << config.n << ", shape "
            << partition::shape_name(config.shape)
            << " (modeled plane — no data allocated)\n";
  const auto res = core::run_pmm(config);

  util::Table r("per-rank breakdown (virtual seconds)");
  r.set_header({"rank", "device", "complete", "compute", "mpi", "idle",
                "area", "gemms", "bcasts"});
  for (std::size_t k = 0; k < res.reports.size(); ++k) {
    std::string label = "P";
    label += std::to_string(k);
    r.add_row({label,
               platform.devices[k].name.substr(0, 10),
               util::Table::num(res.rank_exec_s[k], 3),
               util::Table::num(res.rank_comp_s[k], 3),
               util::Table::num(res.rank_comm_s[k], 3),
               util::Table::num(res.rank_idle_s[k], 3),
               util::Table::num(res.spec.area_of(static_cast<int>(k))),
               util::Table::num(
                   static_cast<std::int64_t>(res.reports[k].gemm_calls)),
               util::Table::num(
                   static_cast<std::int64_t>(res.reports[k].bcasts))});
  }
  std::cout << "\n";
  r.print(std::cout);

  std::cout << "\nparallel execution: " << res.exec_time_s << " s ("
            << res.tflops << " TFLOPs, "
            << 100.0 * res.tflops * 1e12 / platform.theoretical_peak_flops()
            << "% of peak)\n"
            << "dynamic energy: " << res.energy.dynamic_j / 1e3 << " kJ\n";

  // First few timeline events of the fastest rank.
  std::cout << "\ntimeline excerpt (rank 0, first 8 events):\n";
  int shown = 0;
  for (const auto& e : res.events) {
    if (e.rank != 0 || shown >= 8) continue;
    std::cout << "  [" << util::Table::num(e.vstart, 4) << " - "
              << util::Table::num(e.vend, 4) << "] "
              << trace::to_string(e.kind);
    if (e.bytes) std::cout << " " << e.bytes / 1024 / 1024 << " MiB";
    if (!e.detail.empty()) std::cout << " " << e.detail;
    std::cout << "\n";
    ++shown;
  }
  return 0;
}

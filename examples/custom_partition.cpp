// Low-level API tour: build your own partition layouts and drive the
// SummaGen core directly — no shape builder, no experiment runner.
//
// Three layouts over the same 4-processor platform:
//   1. a hand-written non-rectangular spec (a pinwheel);
//   2. the NRRP recursive partitioner's output;
//   3. the Push-Technique descent's output;
// each executed numerically and verified against the serial reference.
//
//   $ ./custom_partition [--n 240]
#include <iostream>

#include "src/core/reference.hpp"
#include "src/core/runner.hpp"
#include "src/partition/nrrp.hpp"
#include "src/partition/push.hpp"
#include "src/util/cli.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace summagen;

// Runs SummaGen numerically over `spec` and reports (error, exec seconds).
std::pair<double, double> execute(const partition::PartitionSpec& spec,
                                  const device::Platform& platform) {
  const int p = platform.nprocs();
  const auto processors = platform.processors();
  util::Matrix a(spec.n, spec.n), b(spec.n, spec.n);
  util::fill_random(a, 1);
  util::fill_random(b, 2);
  // Every rank's store, plus the one workspace lease their WA/WB slice.
  const core::RunStores stores(spec, p, a, b);
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  mpi_config.link = platform.mpi_link;
  sgmpi::Runtime runtime(mpi_config);
  runtime.run([&](sgmpi::Comm& world) {
    core::summagen_rank(world, spec,
                        processors[static_cast<std::size_t>(world.rank())],
                        stores.at(world.rank()));
  });
  util::Matrix c(spec.n, spec.n);
  stores.gather_c(c);
  const double err =
      util::Matrix::max_abs_diff(c, core::reference_multiply(a, b));
  return {err, runtime.max_vtime()};
}

void show(const char* title, const partition::PartitionSpec& spec,
          const device::Platform& platform) {
  const auto [err, secs] = execute(spec, platform);
  std::cout << "--- " << title << " ---\n"
            << spec.render(std::max<std::int64_t>(1, spec.n / 16))
            << "sum of half-perimeters: " << spec.total_half_perimeter()
            << ", modeled time: " << secs << " s, max |error| vs reference: "
            << err << (err < 1e-9 ? "  [verified]" : "  [MISMATCH]")
            << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::int64_t n = cli.get_int("n", 240);
  const auto platform = device::Platform::synthetic({1.0, 1.0, 1.0, 1.0},
                                                    200.0e9);

  // 1. Hand-written pinwheel: four L-ish zones interlocking around the
  //    centre — a layout no builder in this library produces. The spec
  //    interface takes any grid of sub-partitions and any ownership.
  {
    partition::PartitionSpec spec;
    spec.n = n;
    spec.subplda = 3;
    spec.subpldb = 3;
    const std::int64_t a = n / 3, b = n - 2 * (n / 3);
    spec.subph = {a, b, a};
    spec.subpw = {a, b, a};
    spec.subp = {0, 0, 1,
                 2, 0, 1,
                 2, 3, 3};
    show("hand-written pinwheel", spec, platform);
  }

  // 2. NRRP for four equal processors.
  {
    std::vector<std::int64_t> areas(4, n * n / 4);
    areas[0] += n * n - 4 * (n * n / 4);
    show("nrrp_partition", partition::nrrp_partition(n, areas), platform);
  }

  // 3. Push-Technique descent from a 1D start.
  {
    std::vector<std::int64_t> areas(4, n * n / 4);
    areas[0] += n * n - 4 * (n * n / 4);
    partition::PushOptions opts;
    opts.grid = 12;
    const auto res = partition::push_optimize(n, areas, opts);
    std::cout << "(push descent: " << res.initial_half_perimeter << " -> "
              << res.final_half_perimeter << " after " << res.swaps
              << " accepted moves)\n";
    show("push_optimize", res.spec, platform);
  }
  return 0;
}

// Extension bench: 2.5D replication vs a flat SUMMA grid at equal
// processor count (paper Section III-D's communication-optimal frontier).
//
// 256 homogeneous processors (modeled plane; ranks are cheap fibers)
// arranged either as a 16x16 SUMMA grid (c=1) or as 8x8 grids stacked
// c=4 deep. The 2.5D trade: each rank's panel broadcast traffic drops
// ~c-fold, paid for with one block replication and one C reduction. The
// win condition 1/sqrt(c) + c/sqrt(p) < 1 needs p > 64 for c=4 — at
// p=256 the per-rank traffic drops ~25% and the modeled communication
// time with it.
//
// Flags: --n 16384  --beta-scales 1,16
#include <iostream>

#include "src/core/summa25d.hpp"
#include "src/device/platform.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

struct Outcome {
  double exec = 0.0, comp = 0.0, comm = 0.0;
  std::int64_t panel_mib = 0, extra_mib = 0;
};

Outcome run(std::int64_t n, const summagen::core::Summa25dConfig& config,
            const summagen::device::Platform& platform) {
  using namespace summagen;
  const int p = config.q * config.q * config.c;
  const auto processors = platform.processors();
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  mpi_config.link = platform.mpi_link;
  sgmpi::Runtime runtime(mpi_config);
  std::vector<core::Summa25dReport> reports(static_cast<std::size_t>(p));
  runtime.run([&](sgmpi::Comm& world) {
    reports[static_cast<std::size_t>(world.rank())] = core::summa25d_rank(
        world, n, config, processors[static_cast<std::size_t>(world.rank())],
        nullptr);
  });
  Outcome out;
  out.exec = runtime.max_vtime();
  for (int r = 0; r < p; ++r) {
    out.comp = std::max(out.comp, runtime.clock(r).compute_seconds());
    out.comm = std::max(out.comm, runtime.clock(r).comm_seconds());
    out.panel_mib = std::max(
        out.panel_mib,
        reports[static_cast<std::size_t>(r)].bcast_bytes / (1 << 20));
    out.extra_mib = std::max(
        out.extra_mib,
        (reports[static_cast<std::size_t>(r)].replication_bytes +
         reports[static_cast<std::size_t>(r)].reduce_bytes) /
            (1 << 20));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace summagen;
  const util::Cli cli(argc, argv);
  const std::int64_t n = cli.get_int("n", 16384);
  const auto beta_scales = cli.get_double_list("beta-scales", {1.0, 16.0});

  util::Table t("2.5D vs flat SUMMA, 256 homogeneous processors, N=" +
                std::to_string(n));
  t.set_header({"fabric", "layout", "exec_s", "comp_s", "comm_s",
                "panel_MiB/rank", "repl+reduce_MiB"});

  for (double bs : beta_scales) {
    auto platform = device::Platform::homogeneous(256, 50.0e9);
    platform.mpi_link.beta_s_per_byte *= bs;
    const auto flat = run(n, {16, 1, 512}, platform);
    const auto deep = run(n, {8, 4, 512}, platform);
    const std::string fabric = util::Table::num(bs, 0) + "x slower";
    t.add_row({fabric, "16x16 (c=1)", util::Table::num(flat.exec, 3),
               util::Table::num(flat.comp, 3), util::Table::num(flat.comm, 3),
               util::Table::num(flat.panel_mib),
               util::Table::num(flat.extra_mib)});
    t.add_row({fabric, "8x8x4 (c=4)", util::Table::num(deep.exec, 3),
               util::Table::num(deep.comp, 3), util::Table::num(deep.comm, 3),
               util::Table::num(deep.panel_mib),
               util::Table::num(deep.extra_mib)});
  }
  t.print(std::cout);
  std::cout << "\nReplication divides the per-rank panel traffic by ~c at a "
               "one-off replication + reduction price; with p large enough "
               "(1/sqrt(c) + c/sqrt(p) < 1) the total traffic and the "
               "modeled communication time drop.\n";
  return 0;
}

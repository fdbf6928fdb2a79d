// Micro-benchmark: real wall-clock latency of the sgmpi collectives
// (rendezvous + memcpy machinery), independent of the Hockney virtual
// costs they account.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/mpi/mpi.hpp"

namespace {

using summagen::sgmpi::Comm;
using summagen::sgmpi::Config;
using summagen::sgmpi::Runtime;

void BM_Bcast(benchmark::State& state) {
  const int nranks = 3;
  const auto count = static_cast<std::int64_t>(state.range(0));
  Config config;
  config.nranks = nranks;
  Runtime runtime(config);
  std::vector<std::vector<double>> bufs(
      nranks, std::vector<double>(static_cast<std::size_t>(count), 1.0));
  for (auto _ : state) {
    runtime.run([&](Comm& world) {
      world.bcast(bufs[static_cast<std::size_t>(world.rank())].data(), count,
                  0);
    });
  }
  state.SetBytesProcessed(state.iterations() * count *
                          static_cast<std::int64_t>(sizeof(double)) *
                          (nranks - 1));
}

void BM_Barrier(benchmark::State& state) {
  Config config;
  config.nranks = static_cast<int>(state.range(0));
  Runtime runtime(config);
  for (auto _ : state) {
    runtime.run([&](Comm& world) {
      for (int i = 0; i < 100; ++i) world.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}

}  // namespace

BENCHMARK(BM_Bcast)->Arg(1024)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_Barrier)->Arg(2)->Arg(3)->Arg(8);

BENCHMARK_MAIN();

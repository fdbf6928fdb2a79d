// Rank engine: FiberHost scheduling, the sgmpi primitives on rank fibers,
// and their payloads and final virtual clocks against the closed-form
// Hockney costs (the sequential model MpiFuzz also uses).
#include "src/mpi/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/mpi/mpi.hpp"

namespace summagen::sgmpi {
namespace {

using detail::FiberHost;

Config engine_config(int nranks) {
  Config config;
  config.nranks = nranks;
  return config;
}

// --- FiberHost scheduling ---

TEST(FiberHost, RunsEveryFiberToCompletion) {
  FiberHost host(8, 0);
  std::vector<int> done(8, 0);
  host.run([&](int i) { done[static_cast<std::size_t>(i)] = i + 1; });
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(done[static_cast<std::size_t>(i)], i + 1);
  }
}

TEST(FiberHost, RoundRobinOrderIsDeterministic) {
  // Each fiber logs (index, step) around two yields: with ascending-order
  // sweeps the trace is exactly step-major.
  FiberHost host(3, 0);
  std::vector<std::pair<int, int>> trace;
  host.run([&](int i) {
    for (int step = 0; step < 3; ++step) {
      trace.emplace_back(i, step);
      FiberHost::current()->yield();
    }
  });
  ASSERT_EQ(trace.size(), 9u);
  std::size_t k = 0;
  for (int step = 0; step < 3; ++step) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(trace[k], std::make_pair(i, step)) << "entry " << k;
      ++k;
    }
  }
}

TEST(FiberHost, CurrentIsNullOutsideARun) {
  EXPECT_EQ(FiberHost::current(), nullptr);
  FiberHost host(2, 0);
  host.run([&](int) { EXPECT_EQ(FiberHost::current(), &host); });
  EXPECT_EQ(FiberHost::current(), nullptr);
}

TEST(FiberHost, CapturesPerFiberExceptions) {
  FiberHost host(4, 0);
  host.run([&](int i) {
    if (i == 2) throw std::runtime_error("fiber 2 failed");
  });
  for (int i = 0; i < 4; ++i) {
    const auto& e = host.errors()[static_cast<std::size_t>(i)];
    if (i == 2) {
      ASSERT_TRUE(e != nullptr);
      EXPECT_THROW(std::rethrow_exception(e), std::runtime_error);
    } else {
      EXPECT_TRUE(e == nullptr);
    }
  }
}

TEST(FiberHost, YieldOutsideAFiberThrows) {
  FiberHost host(1, 0);
  EXPECT_THROW(host.yield(), std::logic_error);
}

TEST(FiberHost, BlockingWaitOutsideAFiberThrows) {
  // Ranks only ever run as fibers: a blocking wait on a plain thread is a
  // misuse, reported instead of spinning, and the lock stays held.
  std::mutex mutex;
  std::unique_lock<std::mutex> lock(mutex);
  EXPECT_THROW(detail::engine_wait_step(lock), std::logic_error);
  EXPECT_TRUE(lock.owns_lock());
}

TEST(FiberHost, SurvivesDeepStackUse) {
  // Touch well into each fiber's stack (half the 256 KiB reservation) to
  // prove the guard-page layout leaves the reservation usable.
  FiberHost host(4, 256 * 1024);
  std::vector<double> sums(4, 0.0);
  host.run([&](int i) {
    volatile char buffer[128 * 1024];
    buffer[0] = static_cast<char>(i);
    buffer[sizeof(buffer) - 1] = static_cast<char>(i + 1);
    sums[static_cast<std::size_t>(i)] =
        static_cast<double>(buffer[0]) + buffer[sizeof(buffer) - 1];
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sums[static_cast<std::size_t>(i)], 2.0 * i + 1.0);
  }
}

// --- Rank fibers over the primitives ---

TEST(ModeledEngine, CollectivesDeliverPayloads) {
  Runtime rt(engine_config(5));
  rt.run([](Comm& world) {
    std::vector<double> buf(64, world.rank() == 1 ? 2.5 : 0.0);
    world.bcast(buf.data(), 64, 1);
    for (double v : buf) EXPECT_EQ(v, 2.5);
    EXPECT_EQ(world.allreduce_max(static_cast<double>(world.rank())), 4.0);
    EXPECT_EQ(world.allreduce_sum(1.0), 5.0);
    world.barrier();
    const auto gathered = world.gather(10.0 + world.rank(), 0);
    if (world.rank() == 0) {
      ASSERT_EQ(gathered.size(), 5u);
      for (int r = 0; r < 5; ++r) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(r)], 10.0 + r);
      }
    }
  });
}

TEST(ModeledEngine, AsyncBcastWorks) {
  Runtime rt(engine_config(4));
  rt.run([](Comm& world) {
    double payload = world.rank() == 0 ? 42.0 : 0.0;
    Request b = world.ibcast_bytes(&payload, sizeof(double), 0);
    world.wait(b);
    EXPECT_EQ(payload, 42.0);
  });
}

TEST(ModeledEngine, SubgroupCollectivesWork) {
  Runtime rt(engine_config(6));
  rt.run([](Comm& world) {
    const bool even = world.rank() % 2 == 0;
    const std::vector<int> members =
        even ? std::vector<int>{0, 2, 4} : std::vector<int>{1, 3, 5};
    Comm sub = world.subgroup(members);
    const double sum = sub.allreduce_sum(static_cast<double>(world.rank()));
    EXPECT_EQ(sum, even ? 6.0 : 9.0);
  });
}

TEST(ModeledEngine, AbortUnwindsAllRanks) {
  Runtime rt(engine_config(4));
  EXPECT_THROW(rt.run([](Comm& world) {
                 if (world.rank() == 2) {
                   throw std::runtime_error("rank 2 exploded");
                 }
                 world.barrier();  // peers park here until the abort lands
                 world.barrier();
               }),
               std::runtime_error);
}

TEST(ModeledEngine, PoisonedAfterAbort) {
  Runtime rt(engine_config(2));
  EXPECT_THROW(
      rt.run([](Comm&) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  EXPECT_THROW(rt.run([](Comm&) {}), std::logic_error);
}

// --- Payloads and virtual clocks against the Hockney oracle ---
//
// Every rank starts at virtual time 0 and the schedules below keep all
// members of each collective in step, so a collective moves every member's
// clock to t + cost, with cost the closed form of trace/hockney.hpp (the
// default binomial tree for broadcasts). The oracle replays those
// additions in program order, so the comparison is exact.

struct RunOutcome {
  std::vector<double> clock_now;
  std::vector<double> comm_time;  ///< modeled costs the calls returned
  std::vector<std::vector<double>> payloads;  ///< per rank, in call order
};

template <typename Body>
RunOutcome run_schedule(const Config& config, const Body& body) {
  Runtime rt(config);
  RunOutcome out;
  const auto ranks = static_cast<std::size_t>(config.nranks);
  out.comm_time.assign(ranks, 0.0);
  out.payloads.resize(ranks);
  rt.run([&](Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    out.comm_time[r] = body(world, out.payloads[r]);
  });
  for (int r = 0; r < config.nranks; ++r) {
    out.clock_now.push_back(rt.clock(r).now());
  }
  return out;
}

TEST(EngineEquivalence, MixedCollectiveScheduleIsBitIdentical) {
  constexpr int kRanks = 8;
  const Config config = engine_config(kRanks);
  const RunOutcome out =
      run_schedule(config, [](Comm& world, std::vector<double>& seen) {
        double comm = 0.0;
        double value = 1.0 + world.rank();
        for (int round = 0; round < 4; ++round) {
          comm += world.bcast(&value, 1, round % world.size());
          seen.push_back(value);
          value = world.allreduce_sum(value);
          seen.push_back(value);
          world.barrier();
          value = world.allreduce_max(value - world.rank());
          seen.push_back(value);
        }
        comm += world.allreduce_sum_buffer(&value, 1);
        seen.push_back(value);
        return comm;
      });

  const trace::HockneyParams& link = config.link;
  const double bcast = trace::bcast_cost(link, sizeof(double), kRanks);
  const double reduce = trace::allreduce_cost(link, sizeof(double), kRanks);
  const double barrier = trace::barrier_cost(link, kRanks);
  double t = 0.0;
  double comm = 0.0;
  for (int round = 0; round < 4; ++round) {
    t = t + bcast + reduce + barrier + reduce;
    comm += bcast;
  }
  t += reduce;
  comm += reduce;
  // Round 0 broadcasts rank 0's 1; from then on every rank holds the same
  // value, each sum multiplies it by 8 and each max keeps it (rank 0
  // subtracts 0).
  const std::vector<double> seen = {1,   8,   8,   8,    64,   64,   64,
                                    512, 512, 512, 4096, 4096, 32768};
  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(out.clock_now[i], t) << "rank " << r;
    EXPECT_EQ(out.comm_time[i], comm) << "rank " << r;
    EXPECT_EQ(out.payloads[i], seen) << "rank " << r;
  }
}

TEST(EngineEquivalence, AsyncOverlapScheduleIsBitIdentical) {
  constexpr int kRanks = 6;
  const Config config = engine_config(kRanks);
  const std::int64_t bytes = 128 * sizeof(double);
  Runtime rt(config);
  std::vector<double> comm(kRanks, 0.0);
  std::vector<double> payload(kRanks, 0.0);
  rt.run([&](Comm& world) {
    const auto r = static_cast<std::size_t>(world.rank());
    std::vector<double> panel(128, world.rank() == 0 ? 1.5 : 0.0);
    Request b = world.ibcast_bytes(panel.data(), bytes, 0);
    // Overlapped "compute": advance the local lane before completing.
    world.clock().advance_compute(0.003 * (world.rank() + 1));
    comm[r] = world.wait(b);
    payload[r] = panel[127];
  });

  // Every rank posts at 0, so the broadcast occupies [0, cost] on each
  // comm lane; the part of it the rank's compute covers is hidden.
  const double cost = trace::bcast_cost(config.link, bytes, kRanks);
  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double compute = 0.003 * (r + 1);
    const double charged = cost > compute ? cost - compute : 0.0;
    EXPECT_EQ(payload[i], 1.5) << "rank " << r;
    EXPECT_EQ(comm[i], cost) << "rank " << r;
    EXPECT_EQ(rt.clock(r).now(), std::max(compute, cost)) << "rank " << r;
    EXPECT_EQ(rt.clock(r).comm_seconds(), charged) << "rank " << r;
    EXPECT_EQ(rt.clock(r).hidden_comm_seconds(), cost - charged)
        << "rank " << r;
  }
}

TEST(EngineEquivalence, MultiNodeSubgroupScheduleIsBitIdentical) {
  // Two nodes of 8: world collectives cross the inter-node link, the
  // per-node subgroups stay on the intra-node fabric — the two-level
  // pricing setup at p=16.
  constexpr int kRanks = 16;
  Config config = engine_config(kRanks);
  config.node_of.assign(kRanks, 0);
  for (int r = 8; r < kRanks; ++r) {
    config.node_of[static_cast<std::size_t>(r)] = 1;
  }
  const RunOutcome out =
      run_schedule(config, [](Comm& world, std::vector<double>& seen) {
        double comm = 0.0;
        std::vector<int> node_peers;
        const int base = world.rank() < 8 ? 0 : 8;
        for (int i = 0; i < 8; ++i) node_peers.push_back(base + i);
        Comm sub = world.subgroup(node_peers);
        double v = 1.0 + world.rank();
        comm += sub.bcast(&v, 1, 0);
        seen.push_back(v);
        v += world.rank();
        comm += world.bcast(&v, 1, 0);
        seen.push_back(v);
        v = world.allreduce_sum(v + world.rank());
        seen.push_back(v);
        return comm;
      });

  const double node_bcast =
      trace::bcast_cost(config.link, sizeof(double), 8);
  const double world_bcast =
      trace::bcast_cost(config.internode_link, sizeof(double), kRanks);
  const double world_reduce =
      trace::allreduce_cost(config.internode_link, sizeof(double), kRanks);
  const double t = 0.0 + node_bcast + world_bcast + world_reduce;
  const double comm = 0.0 + node_bcast + world_bcast;
  // Rank 0's value after the node broadcast is 1, so the world broadcast
  // delivers 1 + 0; the sum adds every rank's index: 16 + 120.
  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double node_root_value = r < 8 ? 1.0 : 9.0;
    EXPECT_EQ(out.clock_now[i], t) << "rank " << r;
    EXPECT_EQ(out.comm_time[i], comm) << "rank " << r;
    EXPECT_EQ(out.payloads[i],
              (std::vector<double>{node_root_value, 1.0, 136.0}))
        << "rank " << r;
  }
}

// --- Faults on rank fibers ---

TEST(ModeledEngine, CrashShrinkRecoveryWorks) {
  Config config = engine_config(4);
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.rank = 1;
  crash.at_vtime = 0.0;
  config.faults.events.push_back(crash);
  Runtime rt(config);
  std::vector<int> survivors;
  rt.run([&](Comm& world) {
    try {
      for (int step = 0; step < 50; ++step) {
        world.clock().advance_compute(0.01);
        world.barrier();
      }
      world.ft_commit();
    } catch (const PeerFailedError&) {
      const ShrinkResult result = world.shrink();
      if (world.world_rank() == 0) survivors = result.survivors;
    }
  });
  EXPECT_EQ(survivors, (std::vector<int>{0, 2, 3}));
}

// --- Scale smoke: thousands of fibers on one thread ---

TEST(ModeledEngine, FiveHundredTwelveRanksComplete) {
  Runtime rt(engine_config(512));
  double sum = -1.0;
  rt.run([&](Comm& world) {
    double v = 1.0;
    v = world.allreduce_sum(v);
    world.barrier();
    if (world.rank() == 0) sum = v;
  });
  EXPECT_EQ(sum, 512.0);
  EXPECT_GT(rt.max_vtime(), 0.0);
}

}  // namespace
}  // namespace summagen::sgmpi

// Modeled engine: FiberHost scheduling, engine selection, and the
// bit-identity contract between the thread and modeled engines over every
// sgmpi primitive class (collectives, async slots, faults).
#include "src/mpi/engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/mpi/mpi.hpp"

namespace summagen::sgmpi {
namespace {

using detail::FiberHost;

Config engine_config(int nranks, Engine engine) {
  Config config;
  config.nranks = nranks;
  config.engine = engine;
  config.poll_interval_s = 0.005;
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

// --- Engine selection + parsing ---

TEST(Engine, ParseAndPrintRoundTrip) {
  EXPECT_EQ(parse_engine("thread"), Engine::kThread);
  EXPECT_EQ(parse_engine("modeled"), Engine::kModeled);
  EXPECT_STREQ(to_string(Engine::kThread), "thread");
  EXPECT_STREQ(to_string(Engine::kModeled), "modeled");
  EXPECT_THROW(parse_engine("fibers"), std::invalid_argument);
}

// --- Modeled engine correctness over the primitives ---

TEST(ModeledEngine, CollectivesDeliverPayloads) {
  Runtime rt(engine_config(5, Engine::kModeled));
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
  Runtime rt(engine_config(4, Engine::kModeled));
  rt.run([](Comm& world) {
    double payload = world.rank() == 0 ? 42.0 : 0.0;
    Request b = world.ibcast_bytes(&payload, sizeof(double), 0);
    world.wait(b);
    EXPECT_EQ(payload, 42.0);
  });
}

TEST(ModeledEngine, SubgroupCollectivesWork) {
  Runtime rt(engine_config(6, Engine::kModeled));
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
  Runtime rt(engine_config(4, Engine::kModeled));
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
  Runtime rt(engine_config(2, Engine::kModeled));
  EXPECT_THROW(
      rt.run([](Comm&) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  EXPECT_THROW(rt.run([](Comm&) {}), std::logic_error);
}

// --- Bit-identity against the thread engine ---

struct RunOutcome {
  std::vector<double> clock_now;
  std::vector<double> comm_time;
  std::vector<double> payload;
};

template <typename Body>
RunOutcome run_with_engine(Engine engine, int nranks, const Body& body) {
  Runtime rt(engine_config(nranks, engine));
  RunOutcome out;
  out.payload.assign(static_cast<std::size_t>(nranks), 0.0);
  out.comm_time.assign(static_cast<std::size_t>(nranks), 0.0);
  rt.run([&](Comm& world) {
    const auto result = body(world);
    out.payload[static_cast<std::size_t>(world.rank())] = result.first;
    out.comm_time[static_cast<std::size_t>(world.rank())] = result.second;
  });
  for (int r = 0; r < nranks; ++r) out.clock_now.push_back(rt.clock(r).now());
  return out;
}

template <typename Body>
void expect_engines_identical(int nranks, const Body& body) {
  const RunOutcome thread = run_with_engine(Engine::kThread, nranks, body);
  const RunOutcome modeled = run_with_engine(Engine::kModeled, nranks, body);
  for (int r = 0; r < nranks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(thread.clock_now[i], modeled.clock_now[i]) << "rank " << r;
    EXPECT_EQ(thread.comm_time[i], modeled.comm_time[i]) << "rank " << r;
    EXPECT_EQ(thread.payload[i], modeled.payload[i]) << "rank " << r;
  }
}

TEST(EngineEquivalence, MixedCollectiveScheduleIsBitIdentical) {
  expect_engines_identical(8, [](Comm& world) {
    double comm = 0.0;
    double value = static_cast<double>(world.rank());
    for (int round = 0; round < 4; ++round) {
      comm += world.bcast(&value, 1, round % world.size());
      value = world.allreduce_sum(value);
      world.barrier();
      value = world.allreduce_max(value - world.rank());
    }
    comm += world.allreduce_sum_buffer(&value, 1);
    return std::make_pair(value, comm);
  });
}

TEST(EngineEquivalence, AsyncOverlapScheduleIsBitIdentical) {
  expect_engines_identical(6, [](Comm& world) {
    double comm = 0.0;
    std::vector<double> panel(128, world.rank() == 0 ? 1.5 : 0.0);
    Request b =
        world.ibcast_bytes(panel.data(), 128 * sizeof(double), 0);
    // Overlapped "compute": advance the local lane before completing.
    world.clock().advance_compute(0.003 * (world.rank() + 1));
    comm += world.wait(b);
    return std::make_pair(panel[0], comm);
  });
}

TEST(EngineEquivalence, MultiNodeSubgroupScheduleIsBitIdentical) {
  // Two nodes of 8: world collectives cross the inter-node link, row
  // subgroups stay intra-node — the two-level pricing setup at p=16, the
  // acceptance bound for bit-identity checks.
  const auto body = [](Comm& world) {
    double comm = 0.0;
    std::vector<int> node_peers;
    const int base = world.rank() < 8 ? 0 : 8;
    for (int i = 0; i < 8; ++i) node_peers.push_back(base + i);
    Comm sub = world.subgroup(node_peers);
    double v = static_cast<double>(world.rank());
    comm += sub.bcast(&v, 1, 0);
    comm += world.bcast(&v, 1, 0);
    v = world.allreduce_sum(v);
    return std::make_pair(v, comm);
  };
  Config base = engine_config(16, Engine::kThread);
  base.node_of.assign(16, 0);
  for (int r = 8; r < 16; ++r) base.node_of[static_cast<std::size_t>(r)] = 1;

  RunOutcome outcomes[2];
  for (int pass = 0; pass < 2; ++pass) {
    Config config = base;
    config.engine = pass == 0 ? Engine::kThread : Engine::kModeled;
    Runtime rt(config);
    RunOutcome& out = outcomes[pass];
    out.payload.assign(16, 0.0);
    out.comm_time.assign(16, 0.0);
    rt.run([&](Comm& world) {
      const auto result = body(world);
      out.payload[static_cast<std::size_t>(world.rank())] = result.first;
      out.comm_time[static_cast<std::size_t>(world.rank())] = result.second;
    });
    for (int r = 0; r < 16; ++r) out.clock_now.push_back(rt.clock(r).now());
  }
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(outcomes[0].clock_now[i], outcomes[1].clock_now[i]);
    EXPECT_EQ(outcomes[0].comm_time[i], outcomes[1].comm_time[i]);
    EXPECT_EQ(outcomes[0].payload[i], outcomes[1].payload[i]);
  }
}

// --- Faults under the modeled engine ---

TEST(ModeledEngine, CrashShrinkRecoveryWorks) {
  Config config = engine_config(4, Engine::kModeled);
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
  Config config = engine_config(512, Engine::kModeled);
  config.fiber_stack_bytes = 128 * 1024;
  Runtime rt(config);
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

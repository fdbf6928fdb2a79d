#include "src/mpi/mpi.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace summagen::sgmpi {
namespace {

Config small_config(int nranks) {
  Config config;
  config.nranks = nranks;
  config.poll_interval_s = 0.005;
  return config;
}

TEST(Runtime, RejectsZeroRanks) {
  EXPECT_THROW(Runtime(small_config(0)), std::invalid_argument);
}

TEST(Runtime, RanksAndSizesAreCorrect) {
  Runtime rt(small_config(4));
  std::vector<int> seen(4, -1);
  rt.run([&](Comm& world) {
    EXPECT_EQ(world.size(), 4);
    EXPECT_EQ(world.world_rank(), world.rank());
    seen[static_cast<std::size_t>(world.rank())] = world.rank();
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], r);
}

TEST(Runtime, SingleRankWorks) {
  Runtime rt(small_config(1));
  rt.run([](Comm& world) {
    EXPECT_EQ(world.size(), 1);
    world.barrier();  // no-op
    double x = 3.0;
    world.bcast(&x, 1, 0);
    EXPECT_EQ(world.allreduce_max(5.0), 5.0);
  });
}

TEST(Bcast, RootZeroDistributesPayload) {
  Runtime rt(small_config(3));
  rt.run([](Comm& world) {
    std::vector<double> buf(256, world.rank() == 0 ? 1.25 : 0.0);
    world.bcast(buf.data(), 256, 0);
    for (double v : buf) EXPECT_EQ(v, 1.25);
  });
}

TEST(Bcast, NonZeroRootWorks) {
  Runtime rt(small_config(3));
  rt.run([](Comm& world) {
    std::vector<double> buf(16, world.rank() == 2 ? -7.0 : 0.0);
    world.bcast(buf.data(), 16, 2);
    for (double v : buf) EXPECT_EQ(v, -7.0);
  });
}

TEST(Bcast, SequenceOfBroadcastsWithRotatingRoots) {
  Runtime rt(small_config(4));
  rt.run([](Comm& world) {
    for (int round = 0; round < 20; ++round) {
      const int root = round % world.size();
      double v = world.rank() == root ? 100.0 + round : -1.0;
      world.bcast(&v, 1, root);
      EXPECT_EQ(v, 100.0 + round) << "round " << round;
    }
  });
}

TEST(Bcast, NullPayloadOnlyMovesClocks) {
  Runtime rt(small_config(2));
  rt.run([](Comm& world) {
    const double cost = world.bcast_bytes(nullptr, 1 << 20, 0);
    EXPECT_GT(cost, 0.0);
  });
  EXPECT_GT(rt.clock(0).comm_seconds(), 0.0);
  EXPECT_GT(rt.clock(1).comm_seconds(), 0.0);
}

TEST(Bcast, ModeledCostMatchesHockneyTree) {
  Config config = small_config(3);
  config.link = trace::HockneyParams{1.0e-6, 1.0e-9};
  Runtime rt(config);
  const std::int64_t bytes = 4096;
  rt.run([&](Comm& world) {
    const double cost = world.bcast_bytes(nullptr, bytes, 0);
    EXPECT_DOUBLE_EQ(cost, trace::bcast_cost(config.link, bytes, 3));
  });
  // All ranks end at the same virtual time (they entered together).
  EXPECT_DOUBLE_EQ(rt.clock(0).now(), rt.clock(1).now());
  EXPECT_DOUBLE_EQ(rt.clock(0).now(), rt.clock(2).now());
}

TEST(Bcast, InvalidRootThrows) {
  Runtime rt(small_config(2));
  EXPECT_THROW(rt.run([](Comm& world) {
    double v = 0;
    world.bcast(&v, 1, 5);
  }),
               std::invalid_argument);
}

TEST(Barrier, SynchronisesVirtualClocks) {
  Runtime rt(small_config(3));
  rt.run([](Comm& world) {
    // Rank r computes r seconds, then all meet at a barrier.
    world.clock().advance_compute(static_cast<double>(world.rank()));
    world.barrier();
  });
  // Everyone's clock is at least the slowest rank's pre-barrier time.
  for (int r = 0; r < 3; ++r) EXPECT_GE(rt.clock(r).now(), 2.0);
  // Idle time is charged to the fast ranks only.
  EXPECT_GT(rt.clock(0).idle_seconds(), rt.clock(2).idle_seconds());
}

TEST(Allreduce, MaxOfAllNegativeValues) {
  // Regression: the accumulator must be seeded by the first contribution,
  // not by 0 (found by the schedule fuzzer).
  Runtime rt(small_config(3));
  rt.run([](Comm& world) {
    const double r = static_cast<double>(world.rank());
    EXPECT_DOUBLE_EQ(world.allreduce_max(-5.0 - r), -5.0);
  });
}

TEST(Allreduce, MaxAndSum) {
  Runtime rt(small_config(4));
  rt.run([](Comm& world) {
    const double r = static_cast<double>(world.rank());
    EXPECT_DOUBLE_EQ(world.allreduce_max(r), 3.0);
    EXPECT_DOUBLE_EQ(world.allreduce_sum(r), 6.0);
    // Twice in a row (state reset between collectives).
    EXPECT_DOUBLE_EQ(world.allreduce_max(-r), 0.0);
    EXPECT_DOUBLE_EQ(world.allreduce_sum(1.0), 4.0);
  });
}

TEST(Gather, CollectsInCommRankOrder) {
  Runtime rt(small_config(3));
  rt.run([](Comm& world) {
    const auto got = world.gather(10.0 * world.rank(), 1);
    if (world.rank() == 1) {
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(got[0], 0.0);
      EXPECT_EQ(got[1], 10.0);
      EXPECT_EQ(got[2], 20.0);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(Subgroup, RanksRemapToListOrder) {
  Runtime rt(small_config(4));
  rt.run([](Comm& world) {
    if (world.rank() == 1 || world.rank() == 3) {
      Comm sub = world.subgroup({1, 3});
      EXPECT_EQ(sub.size(), 2);
      EXPECT_EQ(sub.rank(), world.rank() == 1 ? 0 : 1);
      EXPECT_EQ(sub.world_rank(), world.rank());
      double v = sub.rank() == 0 ? 55.0 : 0.0;
      sub.bcast(&v, 1, 0);
      EXPECT_EQ(v, 55.0);
    }
  });
}

TEST(Subgroup, DisjointGroupsOperateConcurrently) {
  Runtime rt(small_config(4));
  rt.run([](Comm& world) {
    const bool low = world.rank() < 2;
    Comm sub = world.subgroup(low ? std::vector<int>{0, 1}
                                  : std::vector<int>{2, 3});
    double v = sub.rank() == 0 ? (low ? 1.0 : 2.0) : 0.0;
    sub.bcast(&v, 1, 0);
    EXPECT_EQ(v, low ? 1.0 : 2.0);
    EXPECT_DOUBLE_EQ(sub.allreduce_sum(1.0), 2.0);
  });
}

TEST(Subgroup, ReusedMemberListSharesState) {
  // Creating the "same" subgroup repeatedly must keep collectives matched.
  Runtime rt(small_config(3));
  rt.run([](Comm& world) {
    for (int i = 0; i < 10; ++i) {
      Comm sub = world.subgroup({0, 1, 2});
      double v = world.rank() == 0 ? i : -1;
      sub.bcast(&v, 1, 0);
      EXPECT_EQ(v, i);
    }
  });
}

TEST(Subgroup, NonMemberCallerRejected) {
  Runtime rt(small_config(3));
  EXPECT_THROW(rt.run([](Comm& world) {
    if (world.rank() == 2) {
      (void)world.subgroup({0, 1});
    } else {
      Comm sub = world.subgroup({0, 1});
      sub.barrier();
    }
  }),
               std::invalid_argument);
}

TEST(Subgroup, DuplicateMembersRejected) {
  Runtime rt(small_config(2));
  EXPECT_THROW(rt.run([](Comm& world) {
    if (world.rank() == 0) (void)world.subgroup({0, 0});
  }),
               std::invalid_argument);
}

TEST(Subgroup, UnknownWorldRankRejected) {
  Runtime rt(small_config(2));
  EXPECT_THROW(rt.run([](Comm& world) {
    if (world.rank() == 0) (void)world.subgroup({0, 9});
  }),
               std::invalid_argument);
}

TEST(ErrorHandling, ExceptionOnOneRankUnwindsAll) {
  Runtime rt(small_config(3));
  EXPECT_THROW(rt.run([](Comm& world) {
    if (world.rank() == 1) throw std::runtime_error("boom");
    world.barrier();  // would deadlock without abort propagation
  }),
               std::runtime_error);
}

TEST(ErrorHandling, PoisonedRuntimeRefusesReuse) {
  Runtime rt(small_config(2));
  EXPECT_THROW(rt.run([](Comm&) { throw std::runtime_error("x"); }),
               std::runtime_error);
  EXPECT_THROW(rt.run([](Comm&) {}), std::logic_error);
}

TEST(ErrorHandling, RootCausePreferredOverAbortedError) {
  Runtime rt(small_config(3));
  try {
    rt.run([](Comm& world) {
      if (world.rank() == 0) throw std::domain_error("root-cause");
      world.barrier();
    });
    FAIL() << "expected a throw";
  } catch (const std::domain_error& e) {
    EXPECT_STREQ(e.what(), "root-cause");
  }
}

TEST(VirtualTime, ComputeThenBcastOrdersByEntryTimes) {
  Config config = small_config(2);
  config.link = trace::HockneyParams{1.0e-3, 0.0};  // 1 ms latency, no bw
  Runtime rt(config);
  rt.run([](Comm& world) {
    if (world.rank() == 0) world.clock().advance_compute(1.0);
    double v = world.rank() == 0 ? 9.0 : 0.0;
    world.bcast(&v, 1, 0);
  });
  // Completion = max(entries) + 1 round * 1ms = 1.001 on both ranks.
  EXPECT_NEAR(rt.clock(0).now(), 1.001, 1e-9);
  EXPECT_NEAR(rt.clock(1).now(), 1.001, 1e-9);
  EXPECT_NEAR(rt.clock(1).idle_seconds(), 1.0, 1e-9);
  EXPECT_NEAR(rt.clock(0).idle_seconds(), 0.0, 1e-9);
}

TEST(VirtualTime, ResetClocksZeroesState) {
  Runtime rt(small_config(2));
  rt.run([](Comm& world) { world.clock().advance_compute(5.0); });
  EXPECT_GT(rt.max_vtime(), 0.0);
  rt.reset_clocks();
  EXPECT_EQ(rt.max_vtime(), 0.0);
}

TEST(Events, BcastEventsRecordedWhenEnabled) {
  Config config = small_config(2);
  config.record_events = true;
  Runtime rt(config);
  rt.run([](Comm& world) {
    double v = 0;
    world.bcast(&v, 1, 0);
  });
  EXPECT_EQ(rt.events().size(), 2u);  // one event per participating rank
  const auto events = rt.events().sorted();
  EXPECT_EQ(events[0].kind, trace::EventKind::kBcast);
  EXPECT_EQ(events[0].bytes, 8);
}

TEST(Events, DisabledByDefault) {
  Runtime rt(small_config(2));
  rt.run([](Comm& world) {
    double v = 0;
    world.bcast(&v, 1, 0);
  });
  EXPECT_EQ(rt.events().size(), 0u);
}

TEST(Topology, IntraNodeGroupsUseFastLink) {
  Config config = small_config(4);
  config.link = trace::HockneyParams{1.0e-6, 1.0e-9};
  config.internode_link = trace::HockneyParams{1.0e-4, 1.0e-7};
  config.node_of = {0, 0, 1, 1};
  Runtime rt(config);
  rt.run([&](Comm& world) {
    // World spans nodes: inter-node price.
    const double world_cost = world.bcast_bytes(nullptr, 1000, 0);
    EXPECT_DOUBLE_EQ(world_cost,
                     trace::bcast_cost(config.internode_link, 1000, 4));
    // A subgroup within node 0: intra-node price.
    if (world.rank() < 2) {
      Comm sub = world.subgroup({0, 1});
      const double sub_cost = sub.bcast_bytes(nullptr, 1000, 0);
      EXPECT_DOUBLE_EQ(sub_cost, trace::bcast_cost(config.link, 1000, 2));
    } else {
      Comm sub = world.subgroup({2, 3});
      sub.bcast_bytes(nullptr, 1000, 0);
    }
  });
}

TEST(Topology, NodeOfSizeMismatchRejected) {
  Config config = small_config(3);
  config.node_of = {0, 1};
  EXPECT_THROW(Runtime rt(config), std::invalid_argument);
}

TEST(Topology, EmptyNodeOfMeansSingleNode) {
  Config config = small_config(2);
  config.link = trace::HockneyParams{1.0e-6, 1.0e-9};
  config.internode_link = trace::HockneyParams{1.0, 1.0};  // absurd
  Runtime rt(config);
  rt.run([&](Comm& world) {
    const double cost = world.bcast_bytes(nullptr, 100, 0);
    EXPECT_DOUBLE_EQ(cost, trace::bcast_cost(config.link, 100, 2));
  });
}

TEST(Stress, ManyMixedCollectivesStayConsistent) {
  Runtime rt(small_config(4));
  rt.run([](Comm& world) {
    double acc = 0.0;
    for (int i = 0; i < 200; ++i) {
      double v = world.rank() == i % 4 ? i : 0.0;
      world.bcast(&v, 1, i % 4);
      acc += v;
      if (i % 7 == 0) world.barrier();
      if (i % 13 == 0) {
        EXPECT_DOUBLE_EQ(world.allreduce_sum(1.0), 4.0);
      }
    }
    // acc = sum of i over 0..199 on every rank.
    EXPECT_DOUBLE_EQ(acc, 199.0 * 200.0 / 2.0);
  });
}

}  // namespace
}  // namespace summagen::sgmpi

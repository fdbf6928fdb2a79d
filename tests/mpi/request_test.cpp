// Tests of the non-blocking sgmpi request API: posting/completion split,
// payload delivery, virtual-time overlap semantics, and equivalence of the
// blocking wrappers with i* + wait.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/mpi/mpi.hpp"

namespace summagen::sgmpi {
namespace {

Config small_config(int nranks) {
  Config config;
  config.nranks = nranks;
  return config;
}

TEST(Request, DefaultConstructedIsNotPending) {
  Request r;
  EXPECT_FALSE(r.pending());
}

TEST(Request, WaitOnNullRequestIsFreeNoOp) {
  Runtime rt(small_config(2));
  rt.run([](Comm& world) {
    Request r;
    EXPECT_EQ(world.wait(r), 0.0);
    EXPECT_EQ(world.clock().now(), 0.0);
  });
}

TEST(Request, IbcastDeliversPayloadAtWait) {
  Runtime rt(small_config(3));
  rt.run([](Comm& world) {
    std::vector<double> buf(64, world.rank() == 1 ? 2.5 : 0.0);
    Request r = world.ibcast_bytes(buf.data(), 64 * sizeof(double), 1);
    EXPECT_TRUE(r.pending());
    world.wait(r);
    EXPECT_FALSE(r.pending());
    for (double v : buf) EXPECT_EQ(v, 2.5);
  });
}

TEST(Request, SingleMemberIbcastCompletesImmediately) {
  Runtime rt(small_config(1));
  rt.run([](Comm& world) {
    double x = 7.0;
    Request r = world.ibcast_bytes(&x, sizeof(double), 0);
    EXPECT_FALSE(r.pending());
    EXPECT_EQ(world.wait(r), 0.0);
  });
}

TEST(Request, BlockingBcastMatchesIbcastPlusWaitInVirtualTime) {
  const std::int64_t bytes = 4096;
  double blocking_time = 0.0, split_time = 0.0;
  double blocking_comm = 0.0, split_comm = 0.0;
  {
    Runtime rt(small_config(3));
    rt.run([&](Comm& world) {
      world.bcast_bytes(nullptr, bytes, 0);
      world.bcast_bytes(nullptr, bytes, 2);
    });
    blocking_time = rt.max_vtime();
    blocking_comm = rt.clock(0).comm_seconds();
  }
  {
    Runtime rt(small_config(3));
    rt.run([&](Comm& world) {
      Request r1 = world.ibcast_bytes(nullptr, bytes, 0);
      world.wait(r1);
      Request r2 = world.ibcast_bytes(nullptr, bytes, 2);
      world.wait(r2);
    });
    split_time = rt.max_vtime();
    split_comm = rt.clock(0).comm_seconds();
  }
  EXPECT_DOUBLE_EQ(blocking_time, split_time);
  EXPECT_DOUBLE_EQ(blocking_comm, split_comm);
}

TEST(Request, OverlappedBcastIsHiddenBehindCompute) {
  // Every rank posts a broadcast, computes for longer than the broadcast
  // costs, then waits: the broadcast must be fully hidden (no idle, no
  // main-line comm charge) and the clock must equal compute alone.
  const std::int64_t bytes = 1 << 20;
  Runtime rt(small_config(3));
  const double cost = trace::bcast_cost(Config{}.link, bytes, 3);
  const double compute = 10.0 * cost;
  rt.run([&](Comm& world) {
    Request r = world.ibcast_bytes(nullptr, bytes, 0);
    world.clock().advance_compute(compute);
    const double charged = world.wait(r);
    EXPECT_DOUBLE_EQ(charged, cost);  // full modeled cost is still reported
    EXPECT_DOUBLE_EQ(world.clock().now(), compute);
    EXPECT_DOUBLE_EQ(world.clock().hidden_comm_seconds(), cost);
    EXPECT_DOUBLE_EQ(world.clock().comm_seconds(), 0.0);
  });
  EXPECT_DOUBLE_EQ(rt.max_vtime(), compute);
}

TEST(Request, PartialOverlapChargesOnlyTheRemainder) {
  const std::int64_t bytes = 1 << 20;
  Runtime rt(small_config(2));
  const double cost = trace::bcast_cost(Config{}.link, bytes, 2);
  const double compute = 0.5 * cost;
  rt.run([&](Comm& world) {
    Request r = world.ibcast_bytes(nullptr, bytes, 0);
    world.clock().advance_compute(compute);
    world.wait(r);
    EXPECT_NEAR(world.clock().now(), cost, 1e-12);  // completion at cost
    EXPECT_NEAR(world.clock().comm_seconds(), cost - compute, 1e-12);
    EXPECT_NEAR(world.clock().hidden_comm_seconds(), compute, 1e-12);
  });
}

TEST(Request, PipelinedBroadcastsSerialiseOnTheCommLane) {
  // Two posted broadcasts occupy the lane back to back: total completion
  // is 2 * cost even though both were posted at t = 0.
  const std::int64_t bytes = 1 << 16;
  Runtime rt(small_config(2));
  const double cost = trace::bcast_cost(Config{}.link, bytes, 2);
  rt.run([&](Comm& world) {
    Request r1 = world.ibcast_bytes(nullptr, bytes, 0);
    Request r2 = world.ibcast_bytes(nullptr, bytes, 0);
    world.wait(r1);
    world.wait(r2);
    EXPECT_NEAR(world.clock().now(), 2.0 * cost, 1e-12);
  });
}

TEST(Request, WaitallCompletesEverythingInOrder) {
  Runtime rt(small_config(3));
  rt.run([](Comm& world) {
    std::vector<std::vector<double>> bufs;
    std::vector<Request> reqs;
    for (int root = 0; root < 3; ++root) {
      bufs.emplace_back(8, world.rank() == root ? 1.0 + root : 0.0);
      reqs.push_back(world.ibcast_bytes(bufs.back().data(),
                                        8 * sizeof(double), root));
    }
    const double total = world.waitall(reqs);
    EXPECT_GT(total, 0.0);
    for (int root = 0; root < 3; ++root) {
      for (double v : bufs[static_cast<std::size_t>(root)]) {
        EXPECT_EQ(v, 1.0 + root);
      }
    }
    for (const Request& r : reqs) EXPECT_FALSE(r.pending());
  });
}

TEST(Request, TestReturnsFalseUntilPeersPost) {
  Runtime rt(small_config(3));
  rt.run([](Comm& world) {
    if (world.rank() == 0) {
      Comm pair = world.subgroup({0, 1});
      Request r = pair.ibcast_bytes(nullptr, 256, 0);
      // Rank 1 blocks in the world barrier before posting its ibcast, and
      // the barrier cannot release before rank 0 enters it, so test()
      // cannot succeed for the root (no receiver has copied).
      EXPECT_FALSE(pair.test(r));
      world.barrier();
      pair.wait(r);
    } else if (world.rank() == 1) {
      Comm pair = world.subgroup({0, 1});
      world.barrier();
      Request r = pair.ibcast_bytes(nullptr, 256, 0);
      pair.wait(r);
    } else {
      world.barrier();
    }
  });
}

TEST(Request, MismatchedBcastSizeAborts) {
  Runtime rt(small_config(2));
  EXPECT_THROW(rt.run([](Comm& world) {
                 Request r = world.ibcast_bytes(
                     nullptr, world.rank() == 0 ? 128 : 256, 0);
                 world.wait(r);
               }),
               std::invalid_argument);
}

TEST(Request, MismatchedRootAborts) {
  Runtime rt(small_config(2));
  EXPECT_THROW(rt.run([](Comm& world) {
                 Request r = world.ibcast_bytes(nullptr, 128,
                                                world.rank() == 0 ? 0 : 1);
                 world.wait(r);
               }),
               std::invalid_argument);
}

TEST(Request, SubgroupIbcastWorks) {
  Runtime rt(small_config(4));
  rt.run([](Comm& world) {
    if (world.rank() > 1) return;  // ranks 2, 3 sit out
    Comm pair = world.subgroup({0, 1});
    std::vector<double> buf(4, world.rank() == 0 ? 9.0 : 0.0);
    Request r = pair.ibcast_bytes(buf.data(), 4 * sizeof(double), 0);
    pair.wait(r);
    for (double v : buf) EXPECT_EQ(v, 9.0);
  });
}

TEST(Request, CompletedRequestDestructsQuietly) {
  Runtime rt(small_config(2));
  rt.run([](Comm& world) {
    double payload = world.rank() == 0 ? 3.0 : 0.0;
    Request r = world.ibcast_bytes(&payload, sizeof(double), 0);
    world.wait(r);
    EXPECT_EQ(payload, 3.0);
  });  // waited requests destruct here: no abort
}

// Forgetting to wait a pending request silently corrupts the collective
// posting sequence, so the destructor fails loudly instead. Death tests
// fork, which thread sanitizer instrumentation does not support.
#if defined(__SANITIZE_THREAD__)
#define SUMMAGEN_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SUMMAGEN_TEST_TSAN 1
#endif
#endif

#ifndef SUMMAGEN_TEST_TSAN
TEST(RequestDeathTest, PendingRequestDestroyedFailsLoudly) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small_config(2));
        rt.run([](Comm& world) {
          double payload = 1.0;
          Request r = world.ibcast_bytes(&payload, sizeof(double), 0);
          // The root drops its request without wait/test.
          if (world.rank() != 0) world.wait(r);
        });
      },
      "pending ibcast\\(root\\) request destroyed without wait/test on "
      "comm 'world'");
}

TEST(RequestDeathTest, PendingSubgroupRequestNamesItsCommunicator) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small_config(3));
        rt.run([](Comm& world) {
          if (world.rank() == 2) return;  // rank 2 sits out
          Comm pair = world.subgroup({0, 1});
          double payload = 1.0;
          Request r = pair.ibcast_bytes(&payload, sizeof(double), 0);
          // The root drops its request without wait/test.
          if (pair.rank() != 0) pair.wait(r);
        });
      },
      "pending ibcast\\(root\\) request destroyed without wait/test on "
      "comm 'subgroup#1'");
}
#endif

}  // namespace
}  // namespace summagen::sgmpi
